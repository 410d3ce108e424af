"""Truncated realization of the full Hamiltonian, used as an independent oracle.

Oscillator levels 0..cutoff are retained; the basis interleaves spin inside
level, index = 2*n + (0 for spin up, 1 for spin down), i.e.
|0,+>, |0,->, |1,+>, |1,->, ...  Operators are assembled as Kronecker
products osc (x) spin in that order.

Truncation cuts the raising edge out of the top level, so the invariant
2x2 block starting at |cutoff,+> loses its partner state; spectral
comparisons exclude that single leftover basis state instead of padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .smallmat import eigN
from .spectral import block_spectrum

__all__ = [
    "TruncatedSpace",
    "assemble_full",
    "block_decomposition_check",
    "symmetry_report",
    "BlockCheck",
    "SymmetryReport",
]

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class TruncatedSpace:
    """Oscillator levels 0..cutoff kept; total dimension 2*(cutoff+1)."""

    cutoff: int

    def __post_init__(self):
        if isinstance(self.cutoff, bool) or not isinstance(self.cutoff, (int, np.integer)):
            raise ValueError(f"cutoff must be an integer, got {self.cutoff!r}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        object.__setattr__(self, "cutoff", int(self.cutoff))

    @property
    def dim(self) -> int:
        return 2 * (self.cutoff + 1)


def _lowering(levels: int) -> np.ndarray:
    a = np.zeros((levels, levels), dtype=complex)
    for n in range(levels - 1):
        a[n, n + 1] = math.sqrt(n + 1.0)
    return a


def assemble_full(params: ModelParams, space: TruncatedSpace) -> np.ndarray:
    """(alpha/2) sigma_z + homega a^dag a + mu (sigma_+ a - sigma_- a^dag) on the truncated space."""
    levels = space.cutoff + 1
    a = _lowering(levels)
    number = a.conj().T @ a
    eye_osc = np.eye(levels, dtype=complex)
    return (
        0.5 * params.alpha * np.kron(eye_osc, _SIGMA_Z)
        + params.homega * np.kron(number, np.eye(2, dtype=complex))
        + params.mu * (np.kron(a, _SIGMA_PLUS) - np.kron(a.conj().T, _SIGMA_MINUS))
    )


def _pt_image(h: np.ndarray) -> np.ndarray:
    # Parity-plus-time-reversal action: sigma -> -sigma is conjugation by
    # sigma_y on every level (sigma_z -> -sigma_z, sigma_+- -> -sigma_-+),
    # ladder operators fixed, then entrywise complex conjugation.
    flip = np.kron(np.eye(h.shape[0] // 2), _SIGMA_Y)
    return (flip @ h @ flip).conj()


def _fock_parity(space: TruncatedSpace) -> np.ndarray:
    signs = np.array([(-1.0) ** n for n in range(space.cutoff + 1)])
    return np.kron(np.diag(signs), np.eye(2)).astype(complex)


@dataclass(frozen=True)
class SymmetryReport:
    """Frobenius residuals of the symmetry relations on the truncated matrix.

    commutator_residual   -- ||[H, P sigma_z]||
    sigma_z_residual      -- ||sigma_z H sigma_z - H^dagger||
    parity_residual       -- ||P H P - H^dagger||
    pt_residual           -- ||H_pt - H|| (nonzero: the model is not PT symmetric)
    h_norm                -- ||H|| for relative comparisons
    """

    commutator_residual: float
    sigma_z_residual: float
    parity_residual: float
    pt_residual: float
    h_norm: float


def symmetry_report(params: ModelParams, cutoff: int) -> SymmetryReport:
    space = TruncatedSpace(cutoff)
    h = assemble_full(params, space)
    h_dag = h.conj().T
    sz = np.kron(np.eye(space.cutoff + 1), _SIGMA_Z).astype(complex)
    parity = _fock_parity(space)
    grading = parity @ sz
    return SymmetryReport(
        commutator_residual=float(np.linalg.norm(h @ grading - grading @ h)),
        sigma_z_residual=float(np.linalg.norm(sz @ h @ sz - h_dag)),
        parity_residual=float(np.linalg.norm(parity @ h @ parity - h_dag)),
        pt_residual=float(np.linalg.norm(_pt_image(h) - h)),
        h_norm=float(np.linalg.norm(h)),
    )


@dataclass(frozen=True)
class BlockCheck:
    """Multiset comparison of the truncated spectrum against the closed-form blocks."""

    max_deviation: float
    ok: bool
    computed: np.ndarray
    expected: np.ndarray
    excluded_value: float


def block_decomposition_check(
    params: ModelParams, cutoff: int, tolerance: float = 1e-8
) -> BlockCheck:
    """Spectrum of the assembled matrix (leftover top state removed) versus
    the ground-state value and the closed-form spectra of the complete blocks.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 for a block comparison, got {cutoff}")
    space = TruncatedSpace(cutoff)
    h = assemble_full(params, space)

    # |cutoff,+> lost its raising partner; drop it before the eigensolve.
    leftover = 2 * space.cutoff
    excluded_value = float(h[leftover, leftover].real)
    keep = [i for i in range(space.dim) if i != leftover]
    computed = eigN(h[np.ix_(keep, keep)])

    expected = [complex(-0.5 * params.alpha)]
    for n in range(space.cutoff):
        spectrum = block_spectrum(params, n)
        expected.extend([spectrum.e_plus, spectrum.e_minus])
    expected = np.array(expected)

    remaining = list(computed)
    max_deviation = 0.0
    for value in expected:
        distances = [abs(value - other) for other in remaining]
        best = int(np.argmin(distances))
        max_deviation = max(max_deviation, distances[best])
        remaining.pop(best)

    order = np.lexsort((expected.imag, expected.real))
    computed_order = np.lexsort((computed.imag, computed.real))
    return BlockCheck(
        max_deviation=float(max_deviation),
        ok=max_deviation <= tolerance,
        computed=computed[computed_order],
        expected=expected[order],
        excluded_value=excluded_value,
    )
