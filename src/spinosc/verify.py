"""Self-contained verification suite over a built-in grid in the model's own units.

Each check contrasts an implementation route with an independent one
(closed form vs. eigenvectors, analytic derivatives vs. finite differences,
block spectra vs. the assembled truncated matrix) and reports the worst
residual seen.  Temperatures and the full space's coupling are multiples of
max(|homega - alpha|, homega), the other couplings fractions of mu_c, and
bounds relative: a 2**k rescaling prints alike.

One rule judges every check.  A check is its points and a residual
function, evaluated point by point with numpy's overflow, invalid and
divide-by-zero raised rather than warned.  A residual of None skips its
point; the check passes when the worst of the others lies below its bound,
and fails when it skipped every point, as it then compared nothing.
The first point whose residual is NaN or infinite, or whose oracle raises
an ArithmeticError or a ValueError, fails the check with a line naming that
point, and no later point of the check is evaluated.  Input is refused
before the first check, so a ValueError in one is a fault of the code.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .fullspace import block_decomposition_check, symmetry_report
from .metric import eta, eta_from_vectors, verify_metric
from .model import ModelParams, build_block, sigma_z_residual
from .smallmat import EIGN_DIM_CAP
from .spectral import block_spectrum, critical_coupling, phase_rule
from .thermo import finite_diff_check, partition_function, thermo_point

__all__ = ["CheckResult", "run_checks"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


# Couplings as fractions of each subspace's mu_c: three unbroken, three broken.
_MU_FRACTIONS = (0.2, 0.5, 0.8, 1.2, 1.5, 2.0)
# The block check hands eigN the truncated matrix less its top state: 2*cutoff + 1.
_MAX_CUTOFF = (EIGN_DIM_CAP - 1) // 2


def _ulps_from_root(delta: float, n: int, mu_c: float) -> int:
    """The least k <= 2 such that the discriminant is >= 0 k ulps below mu_c and <= 0 k ulps above; 3 if none.

    The discriminant delta**2 - 4*mu**2*(n+1) is taken in exact rationals at
    the doubles as given, so it shares no rounding with phase_rule.  It
    depends on mu**2 alone, so its sign cannot tell mu_c from -mu_c: a
    negative (or NaN) mu_c gets 3.
    """
    if not mu_c >= 0.0:
        return 3
    from fractions import Fraction  # loads decimal: only verify pays for it

    delta_sq, levels = Fraction(delta) ** 2, 4 * (n + 1)
    below = above = mu_c
    for k in range(3):
        if delta_sq - levels * Fraction(below) ** 2 >= 0 >= delta_sq - levels * Fraction(above) ** 2:
            return k
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    return 3


def _bounded(name: str, bound: float, measure: str, what: str, points, residual) -> CheckResult:
    """Judge one check by the module's rule: residual(*point) at each point in order.

    what names a point once formatted with it.
    """
    import numpy as np

    worst, compared = 0.0, False
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for point in points:
            try:
                value = residual(*point)
                if isinstance(value, float) and not math.isfinite(value):
                    raise FloatingPointError(f"the residual is {value}")
            except (ArithmeticError, ValueError) as exc:
                return CheckResult(name, False, f"cannot evaluate {what.format(*point)}: {exc}")
            if value is not None:
                worst, compared = max(worst, value), True
    if not compared:
        return CheckResult(name, False, "no point was compared: the residual skipped every point")
    return CheckResult(name, worst < bound, f"{measure} {worst:.3e}")


def run_checks(alpha: float = 5.0, homega: float = 1.0, cutoff: int = 8) -> list[CheckResult]:
    import numpy as np

    if not 2 <= cutoff <= _MAX_CUTOFF:
        raise ValueError(f"cutoff must be in [2, {_MAX_CUTOFF}], got {cutoff}")
    params = ModelParams(alpha, homega, 0.0)
    if params.delta == 0.0:
        raise ValueError("alpha == homega: every subspace coalesces at mu = 0, so verify has no coupling grid")
    scale = max(abs(params.delta), params.homega)
    if 0.125 * scale == 0.0:
        raise ValueError(f"max(|homega - alpha|, homega) = {scale:g} is too small for verify's temperature grid")
    subspaces = range(6)
    mu_c = [critical_coupling(params, n) for n in subspaces]
    for n in subspaces:  # raises where the discriminant overflows at the grid's largest coupling
        phase_rule(params.delta, n)(max(_MU_FRACTIONS) * mu_c[n])
    # (n, mu, unbroken) at each fraction of mu_c.
    grid = [(n, f * mu_c[n], f < 1.0) for n in subspaces for f in _MU_FRACTIONS]

    def sigma_z(n, mu):
        params = ModelParams(alpha, homega, mu)
        return sigma_z_residual(params, n) / float(np.max(np.abs(build_block(params, n))))

    def metric_routes(n, mu, _):
        params = ModelParams(alpha, homega, mu)
        closed = eta(params, n).matrix
        return float(np.max(np.abs(eta_from_vectors(params, n) - closed)))

    def intertwines(n, mu, unbroken):
        params = ModelParams(alpha, homega, mu)
        diag = verify_metric(params, n)
        if not (diag.positive_definite and diag.det_error < 1e-10):
            raise ArithmeticError(f"the closed metric is not positive definite with unit determinant: {diag}")
        return diag.intertwining_residual / float(np.linalg.norm(build_block(params, n))) if unbroken else None

    def dual_route(n, mu, tau):
        params = ModelParams(alpha, homega, mu)
        # An undefined Z, or a broken one whose cos(Im e_plus / tau) is within 1e-6 of a zero, is not compared.
        z_closed = thermo_point(params, n, tau).z
        if z_closed is None or abs(math.cos(block_spectrum(params, n).e_plus.imag / tau)) < 1e-6:
            return None
        return abs(partition_function(params, n, tau) - z_closed) / abs(z_closed)

    def stencil(n, mu, tau):
        report = finite_diff_check(ModelParams(alpha, homega, mu), n, tau)
        return max(report.rel_err_d1, report.rel_err_d2)

    def truncated_spectrum(mu):
        report = block_decomposition_check(ModelParams(alpha, homega, mu), cutoff)
        return report.max_deviation / float(np.max(np.abs(report.computed)))

    def full_space(mu):
        report = symmetry_report(ModelParams(alpha, homega, mu), cutoff)
        return max(report[:4]) / report.h_norm  # the four residuals over ||H||

    checks = [
        ("sigma-z pseudo-hermiticity (blocks)", 1e-12, "max relative residual", "the block at n = {}, mu = {:.12g}",
         [(n, f * mu_c[0]) for n in subspaces for f in (0.0, 0.25, 0.5, 1.0, 1.5)], sigma_z),
        ("coalescence location (exact discriminant sign vs closed)", 3.0, "max ulps", "the discriminant at n = {}",
         [(n,) for n in subspaces], lambda n: _ulps_from_root(params.delta, n, mu_c[n])),
        ("metric routes agree (eigenvectors vs closed)", 1e-10, "max |diff|", "the metric at n = {}, mu = {:.12g}",
         grid, metric_routes),
        ("metric intertwines block (unbroken)", 1e-10, "max relative residual", "the metric at n = {}, mu = {:.12g}",
         grid, intertwines),
        ("partition function dual route", 1e-10, "max relative |diff|",
         "the matrix route at n = {}, mu = {:.12g}, tau = {:g}",
         [(n, mu, t * scale) for n, mu, _ in grid for t in (0.125, 0.25, 1.25, 5.0)], dual_route),
        ("log-derivative finite differences", 1e-6, "max relative error",
         "the stencil at n = {}, mu = {:.12g}, tau = {:g}",
         [(n, f * mu_c[n], t * scale) for n in (0, 2, 5) for f, t in ((0.5, 0.25), (0.6, 0.375), (1.25, 0.625))],
         stencil),
        # Couplings that sit exactly on a block coalescence are left out: a
        # defective block's eigenvalues carry sqrt(eps)-level conditioning,
        # which no dense solver can beat.  mu_c of subspace n is mu_c[0] /
        # sqrt(n + 1), and no fraction below is 1 / sqrt(n + 1).
        ("truncated spectrum matches block union", 1e-12, "max deviation / spectral radius",
         "the truncated spectrum at mu = {:.12g}", [(f * mu_c[0],) for f in (0.0, 0.3, 0.65, 1.5)], truncated_spectrum),
        # Near resonance a coupling in units of mu_c(0) would leave mu's share of H too small to see.
        ("full-space symmetries and PT image (grading, sigma-z, parity, H_pt - H)", 1e-12, "max relative residual",
         "the full space at mu = {:.12g}", [(0.25 * scale,)], full_space),
    ]
    return [_bounded(*check) for check in checks]
