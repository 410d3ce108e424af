"""Small dense-matrix kernels: closed-form 2x2 eigendecomposition, 2x2 matrix
exponential via the trace split, and a general N x N eigenvalue solve used
only for oracle-style cross checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "DefectiveMatrix",
    "ConvergenceFailure",
    "Eigenpair2",
    "eig2",
    "expm2",
    "eigN",
]

EIGN_DIM_CAP = 256


class DefectiveMatrix(ArithmeticError):
    """Eigenvectors coalesce (exceptional point); eigenvalues attached as .eigenvalues."""

    def __init__(self, message: str, eigenvalues: tuple[complex, complex] | None = None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class ConvergenceFailure(ArithmeticError):
    """Dense eigenvalue iteration failed to converge."""


class Eigenpair2(NamedTuple):
    """One matched eigenvalue with right vector of m and left vector of adjoint(m).

    Vectors are unnormalized; biorthonormal scaling and the balanced gauge's
    |c|^2, all the metric needs of the gauge, are applied downstream.  The
    left vector is the adjoint eigenvector whose eigenvalue conjugates to `value`.
    """

    value: complex
    right_vector: np.ndarray
    left_vector: np.ndarray


def _as_block(m) -> np.ndarray:
    import numpy as np

    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return m


def _null_vector(m: np.ndarray, lam: complex) -> np.ndarray:
    import numpy as np

    # (m - lam I) v = 0: both rows give a candidate; take the better conditioned one.
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    v1 = np.array([b, lam - a], dtype=complex)
    v2 = np.array([lam - d, c], dtype=complex)
    return v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2


def eig2(m) -> tuple[Eigenpair2, Eigenpair2]:
    """Eigendecomposition of a 2x2 complex matrix from the characteristic polynomial.

    The quadratic is solved with the sign choice that avoids cancellation in
    lambda_1, and lambda_2 = det/lambda_1.  Raises DefectiveMatrix when
    |disc| < 1e-12 * max(1, (a-d)**2, 4|bc|), unless the matrix is a scalar
    multiple of the identity (degenerate but diagonalizable).  The absolute
    floor stays here, in the oracle: near a defect its eigenvectors are lost.
    """
    import numpy as np

    m = _as_block(m)
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    tr = a + d
    det = a * d - b * c
    disc = (a - d) ** 2 + 4.0 * b * c

    scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
    if abs(b) <= 1e-14 * scale and abs(c) <= 1e-14 * scale and abs(a - d) <= 1e-14 * scale:
        lam = tr / 2.0
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        return (Eigenpair2(lam, e1, e1.copy()), Eigenpair2(lam, e2, e2.copy()))

    if abs(disc) < 1e-12 * max(1.0, abs(a - d) ** 2, 4.0 * abs(b) * abs(c)):
        lam = tr / 2.0
        raise DefectiveMatrix(
            f"eigenvalues coalesce at {lam}; eigenvectors unavailable",
            eigenvalues=(complex(lam), complex(lam)),
        )

    root = np.sqrt(complex(disc))
    if (tr.conjugate() * root).real < 0.0:
        root = -root
    lam1 = 0.5 * (tr + root)
    lam2 = det / lam1

    adj = m.conj().T
    pairs = []
    for lam in (lam1, lam2):
        right = _null_vector(m, lam)
        left = _null_vector(adj, np.conj(lam))
        pairs.append(Eigenpair2(complex(lam), right, left))
    return (pairs[0], pairs[1])


def expm2(m, scale: float) -> np.ndarray:
    """exp(scale * m) for a 2x2 matrix via the trace split m = c*I + M.

    M is traceless, so M^2 = q^2 * I with q^2 = -det(M), and
    exp(s*m) = e^{s c} [cosh(s q) I + sinh(s q)/q * M].  Imaginary q turns
    cosh/sinh into cos/sin, which is exactly the oscillatory branch.  Both
    terms are even in q, and sinh(s q)/q -> s is the removable singularity
    at q = 0 (coalescing eigenvalues), so one formula covers every block.
    Raises OverflowError where a term of the result leaves double range.
    """
    import numpy as np

    m = _as_block(m)
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")

    center = 0.5 * (m[0, 0] + m[1, 1])
    traceless = m - center * np.eye(2)
    q_sq = traceless[0, 0] ** 2 + traceless[0, 1] * traceless[1, 0]
    q = np.sqrt(complex(q_sq))
    sq = scale * q
    with np.errstate(over="ignore", invalid="ignore"):
        result = np.exp(scale * center) * (
            np.cosh(sq) * np.eye(2, dtype=complex) + (np.sinh(sq) / q if q != 0.0 else scale) * traceless
        )
    if not np.all(np.isfinite(result.view(float))):
        raise OverflowError(f"exp({scale!r} * m) leaves double range")
    return result


def eigN(m) -> np.ndarray:
    """All eigenvalues of a general complex dense matrix (oracle use only)."""
    import numpy as np

    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > EIGN_DIM_CAP:
        raise ValueError(f"dimension {m.shape[0]} exceeds cap {EIGN_DIM_CAP}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
