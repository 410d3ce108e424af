"""Truncated realization of the full Hamiltonian, used as an independent oracle.

Oscillator levels 0..cutoff are retained; the basis interleaves spin inside
level, index = 2*n + (0 for spin up, 1 for spin down), i.e.
|0,+>, |0,->, |1,+>, |1,->, ...  H is a dict from (row, column) to its
nonzero entries, assembled from the ladder and spin operators as Kronecker
products osc (x) spin in that order.  The symmetry residuals act on its
entries: sigma_z and the Fock parity are the sign lists (1, -1, 1, -1, ...)
and (-1)**n on both spins of level n, and the PT flip swaps the two spins of
every level.  The model is not PT symmetric:
H_pt - H = -alpha sigma_z + mu sigma_x (a^dag - a), entrywise.

The block check reads the same map block by block, with no dense solver.
An entry outside the invariant 2x2 blocks {|n,+>, |n+1,->}, the ground state
|0,-> and the leftover |cutoff,+> counts as a deviation of its size, so the
invariance is checked exactly.  Truncation cuts the raising edge out of the
top level, so the block starting at |cutoff,+> loses its partner state; the
spectral comparison excludes that single leftover basis state.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple

from .model import ModelParams
from .smallmat import DefectiveMatrix, eig2, frobenius
from .spectral import block_spectrum

__all__ = [
    "assemble_full",
    "block_decomposition_check",
    "symmetry_report",
    "BlockCheck",
    "SymmetryReport",
]

# Spin operators in the order [+1/2, -1/2], as their nonzero entries.
_SPIN_EYE = {(0, 0): 1.0, (1, 1): 1.0}
_SIGMA_Z = {(0, 0): 1.0, (1, 1): -1.0}
_SIGMA_X = {(0, 1): 1.0, (1, 0): 1.0}
_SIGMA_PLUS = {(0, 1): 1.0}
_SIGMA_MINUS = {(1, 0): 1.0}


def _check_cutoff(cutoff: int) -> int:
    """Validate the top oscillator level kept; the space has dimension 2*(cutoff+1)."""
    if isinstance(cutoff, bool) or not isinstance(cutoff, Integral):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return int(cutoff)


def _lowering(levels: int) -> dict:
    """The ladder operator a on levels 0..levels-1 as its nonzero entries: <n|a|n+1> = sqrt(n+1)."""
    return {(n, n + 1): math.sqrt(n + 1.0) for n in range(levels - 1)}


def _kron_sum(terms) -> dict:
    """The sum of scale * (osc (x) spin) over terms (scale, osc, spin), with its zero entries dropped."""
    total = {}
    for scale, osc, spin in terms:
        for (i, j), x in osc.items():
            for (k, m), y in spin.items():
                key = (2 * i + k, 2 * j + m)
                total[key] = total.get(key, 0j) + scale * x * y
    for key in [key for key, value in total.items() if value == 0]:
        del total[key]
    return total


def assemble_full(params: ModelParams, cutoff: int) -> dict:
    """(alpha/2) sigma_z + homega a^dag a + mu (sigma_+ a - sigma_- a^dag) on oscillator levels 0..cutoff."""
    levels = _check_cutoff(cutoff) + 1
    lowering = _lowering(levels)
    raising = {(j, i): x for (i, j), x in lowering.items()}  # a^dag: a is real
    number = {(j, j): x * x for (_, j), x in lowering.items()}  # a^dag a: a has one entry per column
    eye = {(n, n): 1.0 for n in range(levels)}
    return _kron_sum([
        (0.5 * params.alpha, eye, _SIGMA_Z),
        (params.homega, number, _SPIN_EYE),
        (params.mu, lowering, _SIGMA_PLUS),
        (-params.mu, raising, _SIGMA_MINUS),
    ])


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


def _pt_closed(params: ModelParams, levels: int) -> dict:
    """H_pt - H as the model states it, -alpha sigma_z + mu sigma_x (a^dag - a)."""
    lowering = _lowering(levels)
    difference = {**{(j, i): x for (i, j), x in lowering.items()}, **{key: -x for key, x in lowering.items()}}
    eye = {(n, n): 1.0 for n in range(levels)}
    return _kron_sum([(-params.alpha, eye, _SIGMA_Z), (params.mu, difference, _SIGMA_X)])


def symmetry_report(params: ModelParams, cutoff: int) -> SymmetryReport:
    h = assemble_full(params, cutoff)
    levels = cutoff + 1
    closed = _pt_closed(params, levels)
    # Conjugation by a sign list v scales entry (i, j) by v_i v_j; the commutator with the grading
    # g = P sigma_z scales it by g_j - g_i.  sigma_y on every level swaps i <-> i ^ 1 with signs sz_i sz_j.
    sz = [1.0, -1.0] * levels
    parity = [(-1.0) ** (i // 2) for i in range(2 * levels)]
    grading = [p * s for p, s in zip(parity, sz)]
    # Every position where H, H^dagger, H_pt or K has an entry, in row-major order: a zero adds nothing.
    keys = h.keys() | {(j, i) for i, j in h}
    keys = sorted(keys | {(i ^ 1, j ^ 1) for i, j in keys} | closed.keys())

    def at(i, j):
        return h.get((i, j), 0j)

    return SymmetryReport(
        commutator_residual=frobenius(at(i, j) * (grading[j] - grading[i]) for i, j in keys),
        sigma_z_residual=frobenius(sz[i] * sz[j] * at(i, j) - at(j, i).conjugate() for i, j in keys),
        parity_residual=frobenius(parity[i] * parity[j] * at(i, j) - at(j, i).conjugate() for i, j in keys),
        pt_residual=frobenius(
            (sz[i] * sz[j] * at(i ^ 1, j ^ 1)).conjugate() - at(i, j) - closed.get((i, j), 0j) for i, j in keys
        ),
        h_norm=frobenius(at(i, j) for i, j in keys),
    )


class BlockCheck(NamedTuple):
    """The truncated map against the closed-form blocks.

    max_deviation   -- the largest of: |entry| outside the blocks, the ground
                       state's distance from -alpha/2, and each block's
                       eigenvalue pair's distance from block_spectrum's
    computed        -- the ground state's value, then each block's pair in order of n
    excluded_value  -- the leftover |cutoff,+>'s diagonal entry
    """

    max_deviation: float
    computed: tuple[complex, ...]
    excluded_value: float


def block_decomposition_check(params: ModelParams, cutoff: int) -> BlockCheck:
    """The assembled map block by block against the ground-state value and the closed-form blocks.

    Each block's eigenvalues are eig2's, or the coalesced pair where eig2
    finds the block defective; a pair matches block_spectrum's in whichever
    order lies closer.
    """
    cutoff = _check_cutoff(cutoff)
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 for a block comparison, got {cutoff}")
    h = assemble_full(params, cutoff)

    # |cutoff,+> lost its raising partner: it stands alone, as the ground state |0,-> does.
    leftover = 2 * cutoff
    blocks = [(2 * n, 2 * n + 3) for n in range(cutoff)]
    inside = {(1, 1), (leftover, leftover)} | {(i, j) for block in blocks for i in block for j in block}
    deviations = [abs(value) for key, value in h.items() if key not in inside]

    ground = h.get((1, 1), 0j)
    deviations.append(abs(ground + 0.5 * params.alpha))
    computed = [ground]
    for n, (i, j) in enumerate(blocks):
        block = ((h.get((i, i), 0j), h.get((i, j), 0j)), (h.get((j, i), 0j), h.get((j, j), 0j)))
        try:
            values = tuple(pair.value for pair in eig2(block))
        except DefectiveMatrix as exc:
            values = exc.eigenvalues
        spectrum = block_spectrum(params, n)
        expected = (spectrum.e_plus, spectrum.e_minus)
        deviations.append(min(max(abs(v - e) for v, e in zip(values, order)) for order in (expected, expected[::-1])))
        computed.extend(values)
    return BlockCheck(max(deviations), tuple(computed), h.get((leftover, leftover), 0j).real)
