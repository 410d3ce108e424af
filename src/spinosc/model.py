"""Spin-1/2 level pair coupled to an oscillator ladder through a non-Hermitian hopping term.

The full Hamiltonian decomposes into 2x2 blocks acting on the invariant
subspaces spanned by |n,+1/2> and |n+1,-1/2>.  This module owns the block
construction and the block-level symmetry residuals; everything downstream
(spectra, metrics, thermodynamics) consumes these blocks.

Basis order inside every block is fixed as [|n,+1/2>, |n+1,-1/2>].
"""

from __future__ import annotations

import math
from collections import namedtuple
from numbers import Integral

__all__ = [
    "ModelParams",
    "MAX_SUBSPACE",
    "check_subspace_index",
    "build_block",
    "sigma_z_residual",
]


class ModelParams(namedtuple("ModelParams", "alpha homega mu")):
    """Physical inputs of the model.

    alpha   -- level splitting of the two-level system (any real energy).
    homega  -- oscillator quantum; hbar and omega only ever appear as this
               product, so a single positive field carries both.
    mu      -- non-Hermitian coupling strength.  All formulas depend on mu**2
               only, so mu < 0 is rejected rather than silently squared.

    Each field is stored as a float, 0.0 for a negative zero, so that -0.0
    and 0.0 make the same record.  Temperatures elsewhere are k_B*T in the
    same energy units (k_B = 1).
    """

    __slots__ = ()

    def __new__(cls, alpha: float, homega: float, mu: float):
        values = []
        for name, value in zip(cls._fields, (alpha, homega, mu)):
            value = float(value) + 0.0  # + 0.0 turns -0.0 into 0.0 and keeps every other value
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            values.append(value)
        self = super().__new__(cls, *values)
        if self.homega <= 0.0:
            raise ValueError(f"homega must be positive, got {self.homega}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        return self

    @classmethod
    def _make(cls, iterable):
        """Build from an iterable through __new__'s checks; _replace builds through this too."""
        return cls(*iterable)

    @property
    def delta(self) -> float:
        """Detuning homega - alpha; its sign and size control every branch downstream."""
        return self.homega - self.alpha


MAX_SUBSPACE = 2**53 - 1
"""Largest subspace index: up to here n and n + 1 are distinct, exact doubles."""


def check_subspace_index(n: int) -> int:
    """Validate an oscillator quantum number labeling a 2x2 invariant subspace."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValueError(f"subspace index must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"subspace index must be nonnegative, got {n}")
    if n > MAX_SUBSPACE:
        raise ValueError("subspace index must be at most 2**53 - 1, where n + 1 is still exact in a double")
    return int(n)


def build_block(params: ModelParams, n: int) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """2x2 Hamiltonian block on the invariant subspace [|n,+1/2>, |n+1,-1/2>], as nested tuples of complex.

    [[alpha/2 + n*homega,              mu*sqrt(n+1)],
     [-mu*sqrt(n+1),      -alpha/2 + (n+1)*homega]]

    The off-diagonal pair is antisymmetric, which is the entire source of
    non-Hermiticity; the trace (2n+1)*homega is alpha- and mu-independent.
    """
    n = check_subspace_index(n)
    coupling = params.mu * math.sqrt(n + 1.0)
    return (
        (complex(0.5 * params.alpha + n * params.homega), complex(coupling)),
        (complex(-coupling), complex(-0.5 * params.alpha + (n + 1) * params.homega)),
    )


def sigma_z_residual(params: ModelParams, n: int) -> float:
    """Frobenius norm of sigma_z H sigma_z^-1 - H^dagger on one block.

    sigma_z restricted to the block is diag(1, -1); conjugation by it flips
    the off-diagonal signs exactly, so the residual is zero to rounding for
    every parameter choice.  The norm is math.hypot's, which squares no entry.
    """
    (a, b), (c, d) = build_block(params, n)
    residual = (a - a.conjugate(), -b - c.conjugate(), -c - b.conjugate(), d - d.conjugate())
    return math.hypot(*map(abs, residual))
