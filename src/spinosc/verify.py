"""Self-contained verification suite over a built-in parameter grid.

Each check contrasts an implementation route with an independent one
(closed form vs. eigenvectors, analytic derivatives vs. finite differences,
block spectra vs. the assembled truncated matrix) and reports the worst
residual seen.
"""

from __future__ import annotations

from typing import NamedTuple

from .fullspace import block_decomposition_check, symmetry_report
from .metric import eta, eta_from_vectors, verify_metric
from .model import ModelParams, build_block, sigma_z_residual
from .smallmat import EIGN_DIM_CAP
from .spectral import critical_coupling, locate_ep_numeric
from .thermo import StencilCrossesSingularity, finite_diff_check, partition_function, thermo_point

__all__ = ["CheckResult", "run_checks"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


# Couplings as fractions of each subspace's mu_c: three unbroken, three broken.
_MU_FRACTIONS = (0.2, 0.5, 0.8, 1.2, 1.5, 2.0)
# The block check hands eigN the truncated matrix less its top state: 2*cutoff + 1.
_MAX_CUTOFF = (EIGN_DIM_CAP - 1) // 2


def _bounded(
    name: str, worst: float, bound: float, measure: str, ok: bool = True, unevaluated: str | None = None
) -> CheckResult:
    """A check that passes when its worst residual lies below its bound.

    unevaluated names the first point the check could not evaluate; such a
    point fails the check, since none is skipped.
    """
    if unevaluated:
        return CheckResult(name, False, unevaluated)
    return CheckResult(name, ok and worst < bound, f"{measure} {worst:.3e}")


def run_checks(alpha: float = 5.0, homega: float = 1.0, cutoff: int = 8) -> list[CheckResult]:
    import numpy as np

    if not 2 <= cutoff <= _MAX_CUTOFF:
        raise ValueError(f"cutoff must be in [2, {_MAX_CUTOFF}], got {cutoff}")
    results = []
    subspaces = range(6)
    mu_c = [critical_coupling(ModelParams(alpha, homega, 0.0), n) for n in subspaces]
    # (n, mu, unbroken) at each fraction of mu_c.
    grid = [(n, f * mu_c[n], f < 1.0) for n in subspaces for f in _MU_FRACTIONS]

    worst = 0.0
    for n in subspaces:
        for mu in (0.0, 0.5, 1.0, 2.0, 3.0):
            params = ModelParams(alpha, homega, mu)
            h_norm = float(np.linalg.norm(build_block(params, n)))
            worst = max(worst, sigma_z_residual(params, n) / (1.0 + h_norm))
    results.append(_bounded("sigma-z pseudo-hermiticity (blocks)", worst, 1e-12, "max residual"))

    worst = 0.0
    for n in subspaces:
        located = locate_ep_numeric(alpha, homega, n, (0.0, mu_c[n] + 1.0))
        worst = max(worst, abs(located - mu_c[n]))
    results.append(_bounded("coalescence location (bisection vs closed)", worst, 1e-10, "max |diff|"))

    worst_route = 0.0
    worst_intertwine = 0.0
    metric_ok = True
    for n, mu, unbroken in grid:
        params = ModelParams(alpha, homega, mu)
        closed = eta(params, n).matrix
        vectors = eta_from_vectors(params, n)
        worst_route = max(worst_route, float(np.max(np.abs(vectors - closed))))
        diag = verify_metric(params, n)
        metric_ok = metric_ok and diag.positive_definite and diag.det_error < 1e-10
        if unbroken:
            h_norm = float(np.linalg.norm(build_block(params, n)))
            worst_intertwine = max(worst_intertwine, diag.intertwining_residual / h_norm)
    results.append(_bounded("metric routes agree (eigenvectors vs closed)", worst_route, 1e-10, "max |diff|"))
    results.append(
        _bounded(
            "metric intertwines block (unbroken)", worst_intertwine, 1e-10, "max relative residual", metric_ok
        )
    )

    worst, unevaluated = 0.0, None
    for n, mu, _ in grid:
        params = ModelParams(alpha, homega, mu)
        for tau in (0.5, 1.0, 5.0, 20.0):
            # Z outside double range (None) or near a zero of the broken
            # cos has no relative error to compare.
            z_closed = thermo_point(params, n, tau).z
            if z_closed is None or abs(z_closed) < 1e-6:
                continue
            try:
                z_matrix = partition_function(params, n, tau)
            except OverflowError as exc:  # a term of the matrix exponential, where Z itself is in range
                if unevaluated is None:
                    unevaluated = f"cannot evaluate the matrix route at n = {n}, mu = {mu:.12g}, tau = {tau:g}: {exc}"
                continue
            worst = max(worst, abs(z_matrix - z_closed) / abs(z_closed))
    results.append(
        _bounded("partition function dual route", worst, 1e-10, "max relative |diff|", unevaluated=unevaluated)
    )

    worst, unevaluated = 0.0, None
    for n in (0, 2, 5):
        for mu, tau in ((0.5 * mu_c[n], 1.0), (0.6 * mu_c[n], 1.5), (1.25 * mu_c[n], 2.5)):
            try:
                report = finite_diff_check(ModelParams(alpha, homega, mu), n, tau, 1e-4 * tau)
            except (StencilCrossesSingularity, OverflowError) as exc:
                if unevaluated is None:
                    unevaluated = f"cannot evaluate the stencil at n = {n}, mu = {mu:.12g}, tau = {tau:g}: {exc}"
                continue
            worst = max(worst, report.rel_err_d1, report.rel_err_d2)
    results.append(
        _bounded("log-derivative finite differences", worst, 1e-6, "max relative error", unevaluated=unevaluated)
    )

    worst = 0.0
    # Couplings that sit exactly on a block coalescence are excluded: a
    # defective block's eigenvalues carry sqrt(eps)-level conditioning, which
    # no dense solver can beat.
    for mu in (0.0, 0.6, 1.3, 3.0):
        worst = max(worst, block_decomposition_check(ModelParams(alpha, homega, mu), cutoff).max_deviation)
    results.append(_bounded("truncated spectrum matches block union", worst, 1e-8, "max deviation"))

    report = symmetry_report(ModelParams(alpha, homega, 1.0), cutoff)
    sym_ok = (
        report.commutator_residual < 1e-12 * report.h_norm
        and report.sigma_z_residual < 1e-12 * report.h_norm
        and report.parity_residual < 1e-12 * report.h_norm
        and report.pt_residual > 0.1 * report.h_norm
    )
    results.append(
        CheckResult(
            "full-space symmetries (grading, sigma-z, parity, no PT)",
            sym_ok,
            f"commutator {report.commutator_residual:.3e}, pt {report.pt_residual:.3e}",
        )
    )
    return results
