"""Truncated realization of the full Hamiltonian, used as an independent oracle.

Oscillator levels 0..cutoff are retained; the basis interleaves spin inside
level, index = 2*n + (0 for spin up, 1 for spin down), i.e.
|0,+>, |0,->, |1,+>, |1,->, ...  H is assembled from the ladder and spin
operators as Kronecker products osc (x) spin in that order.  The symmetry
residuals act on its entries instead: sigma_z and the Fock parity are the
sign vectors (1, -1, 1, -1, ...) and (-1)**n on both spins of level n, and
the PT flip swaps the two spins of every level.  The model is not PT
symmetric: H_pt - H = -alpha sigma_z + mu sigma_x (a^dag - a), entrywise.

Truncation cuts the raising edge out of the top level, so the invariant
2x2 block starting at |cutoff,+> loses its partner state; spectral
comparisons exclude that single leftover basis state instead of padding.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import TYPE_CHECKING, NamedTuple

from .model import ModelParams
from .smallmat import eigN
from .spectral import block_spectrum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "assemble_full",
    "block_decomposition_check",
    "symmetry_report",
    "BlockCheck",
    "SymmetryReport",
]

# Spin operators in the order [+1/2, -1/2], as complex matrices once numpy holds them.
_SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]
_SIGMA_PLUS = [[0.0, 1.0], [0.0, 0.0]]
_SIGMA_MINUS = [[0.0, 0.0], [1.0, 0.0]]


def _check_cutoff(cutoff: int) -> int:
    """Validate the top oscillator level kept; the space has dimension 2*(cutoff+1)."""
    if isinstance(cutoff, bool) or not isinstance(cutoff, Integral):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return int(cutoff)


def _lowering(levels: int) -> np.ndarray:
    import numpy as np

    a = np.zeros((levels, levels), dtype=complex)
    for n in range(levels - 1):
        a[n, n + 1] = math.sqrt(n + 1.0)
    return a


def assemble_full(params: ModelParams, cutoff: int) -> np.ndarray:
    """(alpha/2) sigma_z + homega a^dag a + mu (sigma_+ a - sigma_- a^dag) on oscillator levels 0..cutoff."""
    import numpy as np

    levels = _check_cutoff(cutoff) + 1
    a = _lowering(levels)
    number = a.conj().T @ a
    eye_osc = np.eye(levels, dtype=complex)
    sigma_z, sigma_plus, sigma_minus = (np.array(s, dtype=complex) for s in (_SIGMA_Z, _SIGMA_PLUS, _SIGMA_MINUS))
    return (
        0.5 * params.alpha * np.kron(eye_osc, sigma_z)
        + params.homega * np.kron(number, np.eye(2, dtype=complex))
        + params.mu * (np.kron(a, sigma_plus) - np.kron(a.conj().T, sigma_minus))
    )


class SymmetryReport(NamedTuple):
    """Frobenius residuals of the symmetry relations on the truncated matrix.

    commutator_residual   -- ||[H, P sigma_z]||
    sigma_z_residual      -- ||sigma_z H sigma_z - H^dagger||
    parity_residual       -- ||P H P - H^dagger||
    pt_residual           -- ||H_pt - H - K||, K = -alpha sigma_z + mu sigma_x (a^dag - a) its closed form
    h_norm                -- ||H|| for relative comparisons
    """

    commutator_residual: float
    sigma_z_residual: float
    parity_residual: float
    pt_residual: float
    h_norm: float


def _pt_closed(params: ModelParams, sz: np.ndarray) -> np.ndarray:
    """H_pt - H as the model states it, -alpha sigma_z + mu sigma_x (a^dag - a); sz is sigma_z's diagonal."""
    import numpy as np

    a = _lowering(sz.size // 2)
    closed = np.kron(a.T - a, [[0.0, params.mu], [params.mu, 0.0]])
    np.fill_diagonal(closed, -params.alpha * sz)
    return closed


def symmetry_report(params: ModelParams, cutoff: int) -> SymmetryReport:
    import numpy as np

    h = assemble_full(params, cutoff)
    levels = h.shape[0] // 2
    # Conjugation by a sign vector v scales entry (i, j) by v_i v_j; the commutator with the grading
    # g = P sigma_z scales it by g_j - g_i.  sigma_y on every level swaps i <-> i ^ 1 with signs sz_i sz_j.
    sz = np.tile([1.0, -1.0], levels)
    parity = np.repeat((-1.0) ** np.arange(levels), 2)
    grading = parity * sz
    swap = np.arange(2 * levels) ^ 1
    pt_residual = float(np.linalg.norm((np.outer(sz, sz) * h[np.ix_(swap, swap)]).conj() - h - _pt_closed(params, sz)))
    h_dag = h.conj().T  # after the PT residual: its temporaries and h_dag are never alive together
    return SymmetryReport(
        commutator_residual=float(np.linalg.norm(h * (grading[None, :] - grading[:, None]))),
        sigma_z_residual=float(np.linalg.norm(np.outer(sz, sz) * h - h_dag)),
        parity_residual=float(np.linalg.norm(np.outer(parity, parity) * h - h_dag)),
        pt_residual=pt_residual,
        h_norm=float(np.linalg.norm(h)),
    )


class BlockCheck(NamedTuple):
    """Multiset comparison of the truncated spectrum against the closed-form blocks."""

    max_deviation: float
    computed: np.ndarray
    excluded_value: float


def block_decomposition_check(params: ModelParams, cutoff: int) -> BlockCheck:
    """Spectrum of the assembled matrix (leftover top state removed) versus
    the ground-state value and the closed-form spectra of the complete blocks.
    """
    import numpy as np

    cutoff = _check_cutoff(cutoff)
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 for a block comparison, got {cutoff}")
    h = assemble_full(params, cutoff)

    # |cutoff,+> lost its raising partner; drop it before the eigensolve.
    leftover = 2 * cutoff
    excluded_value = float(h[leftover, leftover].real)
    keep = [i for i in range(h.shape[0]) if i != leftover]
    computed = eigN(h[np.ix_(keep, keep)])

    expected = [complex(-0.5 * params.alpha)]
    for n in range(cutoff):
        spectrum = block_spectrum(params, n)
        expected.extend([spectrum.e_plus, spectrum.e_minus])

    remaining = computed.tolist()
    max_deviation = 0.0
    for value in expected:
        distances = [abs(value - other) for other in remaining]
        best = int(np.argmin(distances))
        max_deviation = max(max_deviation, distances[best])
        remaining.pop(best)
    return BlockCheck(float(max_deviation), computed, excluded_value)
