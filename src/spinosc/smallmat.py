"""Small matrix kernels: closed-form 2x2 eigendecomposition and 2x2 matrix
exponential via the trace split, in complex arithmetic on nested tuples, and
a general N x N eigenvalue solve by numpy.

eigN is the package's only use of numpy, imported when it runs.  Only the
tests' dense cross-check of the truncated full space calls it; it stays
because the benchmark's tracer names it.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

__all__ = [
    "DefectiveMatrix",
    "Eigenpair2",
    "eig2",
    "expm2",
    "frobenius",
    "eigN",
]

EIGN_DIM_CAP = 256


class DefectiveMatrix(ArithmeticError):
    """Eigenvectors coalesce (exceptional point); eigenvalues attached as .eigenvalues."""

    def __init__(self, message: str, eigenvalues: tuple[complex, complex] | None = None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class Eigenpair2(NamedTuple):
    """One matched eigenvalue with right vector of m and left vector of adjoint(m).

    Vectors are unnormalized pairs of complex numbers; the metric weighs each
    pair by one real factor that folds in biorthonormal scaling and the
    balanced gauge.  The left vector is the adjoint eigenvector whose
    eigenvalue conjugates to `value`.
    """

    value: complex
    right_vector: tuple[complex, complex]
    left_vector: tuple[complex, complex]


Block = tuple[tuple[complex, complex], tuple[complex, complex]]


def frobenius(entries) -> float:
    """Frobenius norm of a matrix's entries, in any order, by math.hypot: no entry is squared, and a NaN gives NaN."""
    return math.hypot(*map(abs, entries))


def _as_block(m) -> Block:
    """Any 2x2 nested sequence, numpy arrays included, as ((a, b), (c, d)) of finite complex numbers."""
    try:
        (a, b), (c, d) = m
        block = ((complex(a), complex(b)), (complex(c), complex(d)))
    except (TypeError, ValueError):
        raise ValueError("expected a 2x2 matrix of numbers") from None
    if not all(cmath.isfinite(x) for row in block for x in row):
        raise ValueError("matrix entries must be finite")
    return block


def _null_vector(m: Block, lam: complex) -> tuple[complex, complex]:
    # (m - lam I) v = 0: both rows give a candidate; take the better conditioned one.
    (a, b), (c, d) = m
    v1 = (b, lam - a)
    v2 = (lam - d, c)
    return v1 if frobenius(v1) >= frobenius(v2) else v2


def eig2(m) -> tuple[Eigenpair2, Eigenpair2]:
    """Eigendecomposition of a 2x2 complex matrix from the characteristic polynomial.

    The quadratic is solved with the sign choice that avoids cancellation in
    lambda_1, and lambda_2 = det/lambda_1.  Raises DefectiveMatrix when
    |disc| < max(1e-12 * max((a-d)**2, 4|bc|), 2e-323), unless the matrix is
    a scalar multiple of the identity (degenerate but diagonalizable).  Both
    tests scale with the entries; the subnormal floor binds only where the band underflows.
    """
    m = _as_block(m)
    (a, b), (c, d) = m
    tr = a + d
    det = a * d - b * c
    disc = (a - d) ** 2 + 4.0 * b * c

    scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(b) <= 1e-14 * scale and abs(c) <= 1e-14 * scale and abs(a - d) <= 1e-14 * scale:
        lam = tr / 2.0
        e1, e2 = (1 + 0j, 0j), (0j, 1 + 0j)
        return (Eigenpair2(lam, e1, e1), Eigenpair2(lam, e2, e2))

    if abs(disc) < max(1e-12 * max(abs(a - d) ** 2, 4.0 * abs(b) * abs(c)), 2e-323):
        lam = tr / 2.0
        raise DefectiveMatrix(f"eigenvalues coalesce at {lam}; eigenvectors unavailable", eigenvalues=(lam, lam))

    root = cmath.sqrt(disc)
    if (tr.conjugate() * root).real < 0.0:
        root = -root
    lam1 = 0.5 * (tr + root)
    lam2 = det / lam1

    adj = ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))
    pairs = []
    for lam in (lam1, lam2):
        right = _null_vector(m, lam)
        left = _null_vector(adj, lam.conjugate())
        pairs.append(Eigenpair2(lam, right, left))
    return (pairs[0], pairs[1])


def expm2(m, scale: float) -> Block:
    """exp(scale * m) for a 2x2 matrix via the trace split m = c*I + M.

    M is traceless, so M^2 = q^2 * I with q^2 = -det(M), and
    exp(s*m) = e^{s c} [cosh(s q) I + sinh(s q)/q * M].  Imaginary q turns
    cosh/sinh into cos/sin, which is exactly the oscillatory branch.  Both
    terms are even in q, and sinh(s q)/q -> s is the removable singularity
    at q = 0 (coalescing eigenvalues), so one formula covers every block.
    Raises OverflowError where a term of the result leaves double range.
    """
    (a, b), (c, d) = _as_block(m)
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")

    center = 0.5 * (a + d)
    a, d = a - center, d - center  # the traceless part M = [[a, b], [c, d]]
    q = cmath.sqrt(a * a + b * c)
    sq = scale * q
    try:  # cmath raises OverflowError where a function leaves double range; a product gives inf
        factor = cmath.exp(scale * center)
        cosh = cmath.cosh(sq)
        sinh_q = cmath.sinh(sq) / q if q != 0.0 else scale
        result = (
            (factor * (cosh + sinh_q * a), factor * (sinh_q * b)),
            (factor * (sinh_q * c), factor * (cosh + sinh_q * d)),
        )
        if all(cmath.isfinite(x) for row in result for x in row):
            return result
    except OverflowError:
        pass
    raise OverflowError(f"exp({scale!r} * m) leaves double range")


def eigN(m):
    """All eigenvalues of a general complex dense matrix, as a numpy array; numpy's LinAlgError is a ValueError."""
    import numpy as np

    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > EIGN_DIM_CAP:
        raise ValueError(f"dimension {m.shape[0]} exceeds cap {EIGN_DIM_CAP}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return np.linalg.eigvals(m)
