"""Metric operator per subspace, built two independent ways.

The eigenvector route sums |L><L| over the left eigenvectors of the block.
Biorthonormality <L_i|R_j> = delta_ij only fixes the product of the
left/right scales; the residual freedom (L, R) -> (c L, R / conj(c)) is
removed by the *balanced gauge* <L|L> = <R|R>, which is the unique choice
that makes the summed metric real symmetric with unit determinant.  Only
|c|^2 reaches the metric: each eigenpair (l, r) adds w l l^dagger with one
real weight w = ||r|| / (||l|| |<l|r>|), which is 1 / |<l|r>| for unit vectors.

The closed-form route evaluates the resulting entries directly.  With
b = mu*sqrt(n+1) and s = sign(delta):

  unbroken (D = sqrt(delta^2 - 4 b^2)):   [[|delta|, -2 s b], [-2 s b, |delta|]] / D
  broken   (Dt = sqrt(4 b^2 - delta^2)):  [[2 b, -s |delta|], [-s |delta|, 2 b]] / Dt

Both are positive definite with det = 1 away from the coalescence point,
where every entry diverges like (mu_c - mu)**-1/2 and construction is
refused.  In the broken region the summed metric does *not* intertwine the
block with its adjoint (the spectrum is complex there); the residual is
reported as a diagnostic, never asserted away.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import ModelParams, build_block, check_subspace_index
from .smallmat import DefectiveMatrix, eig2
from .spectral import ExceptionalPoint, PhaseRegion, phase

__all__ = [
    "MetricMatrix",
    "MetricDiagnostics",
    "eta",
    "eta_from_vectors",
    "verify_metric",
]


class MetricMatrix(NamedTuple):
    """Real symmetric 2x2 metric with unit determinant and its region tag."""

    matrix: np.ndarray
    region: PhaseRegion
    n: int


class MetricDiagnostics(NamedTuple):
    det_error: float
    positive_definite: bool
    intertwining_residual: float


def _phase_regular(params: ModelParams, n: int) -> tuple[PhaseRegion, float]:
    """phase(params, n); raises ExceptionalPoint at the coalescence point."""
    region, disc = phase(params, n)
    if region is PhaseRegion.EXCEPTIONAL:
        raise ExceptionalPoint(
            f"metric is singular at mu = {params.mu} (coalescence for subspace n = {n})"
        )
    return region, disc


def eta(params: ModelParams, n: int) -> MetricMatrix:
    """Metric of the (n+1)-th subspace from the closed forms (mu = 0 gives identity)."""
    import numpy as np

    n = check_subspace_index(n)
    region, disc = _phase_regular(params, n)
    coupling = params.mu * math.sqrt(n + 1.0)
    sign = 1.0 if params.delta > 0.0 else -1.0
    if region is PhaseRegion.UNBROKEN:
        d = math.sqrt(disc)
        diag = abs(params.delta) / d
        off = -sign * 2.0 * coupling / d
    else:
        d = math.sqrt(-disc)
        diag = 2.0 * coupling / d
        off = -sign * abs(params.delta) / d
    return MetricMatrix(np.array([[diag, off], [off, diag]]), region, n)


def _traceless_block(params: ModelParams, n: int) -> np.ndarray:
    """[[-delta/2, b], [-b, delta/2]]: the block less its centre, rounded at the size of delta, not of n*homega."""
    import numpy as np

    coupling = params.mu * math.sqrt(n + 1.0)
    return np.array([[-0.5 * params.delta, coupling], [-coupling, 0.5 * params.delta]], dtype=complex)


def eta_from_vectors(params: ModelParams, n: int) -> np.ndarray:
    """Metric as sum_i |l_i><l_i| / |<l_i|r_i>| over unit left and right eigenvectors.

    Independent of the closed forms; used to cross-validate them.  The
    vectors are the traceless block's, which keep delta's digits near
    resonance.  Raises DefectiveMatrix where an overlap vanishes.  Broken-region
    results carry rounding-level imaginary parts from complex arithmetic.
    """
    import numpy as np

    n = check_subspace_index(n)
    _phase_regular(params, n)
    pairs = eig2(_traceless_block(params, n))
    out = np.zeros((2, 2), dtype=complex)
    for p in pairs:
        right = p.right_vector / np.linalg.norm(p.right_vector)
        left = p.left_vector / np.linalg.norm(p.left_vector)
        overlap = abs(np.vdot(left, right))
        if overlap < 1e-12:
            eigenvalues = (pairs[0].value, pairs[1].value)
            raise DefectiveMatrix("left/right overlap vanishes; block is numerically defective", eigenvalues)
        out += np.outer(left, left.conj()) / overlap
    return out


def verify_metric(params: ModelParams, n: int) -> MetricDiagnostics:
    """Consistency diagnostics for the closed-form metric.

    The intertwining residual ||eta H - H^dagger eta||_F vanishes (to
    rounding) in the unbroken region only; in the broken region it is a
    finite documented quantity, reported but not required to be zero.
    """
    import numpy as np

    g = eta(params, n).matrix
    h = build_block(params, n)
    det_error = abs(float(np.linalg.det(g)) - 1.0)
    positive_definite = bool(np.trace(g) > 0.0 and np.linalg.det(g) > 0.0)
    intertwining_residual = float(np.linalg.norm(g @ h - h.conj().T @ g))
    return MetricDiagnostics(det_error, positive_definite, intertwining_residual)
