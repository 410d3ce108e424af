"""Closed-form block spectra, phase classification, and the critical coupling of each subspace.

phase_rule is the one home of the phase rule.  It forms the discriminant
delta**2 - 4*mu**2*(n+1) in real arithmetic before any square root, so the
unbroken/broken decision is a sign test rather than a complex-rounding artifact,
and its Exceptional band is relative to delta**2 above a subnormal floor.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .model import ModelParams, check_subspace_index

__all__ = [
    "ExceptionalPoint",
    "PhaseRegion",
    "Spectrum2",
    "phase_rule",
    "phase",
    "classify",
    "block_spectrum",
    "critical_coupling",
]


class ExceptionalPoint(ArithmeticError):
    """A quantity is singular at the eigenvalue coalescence point, where the phase rule tags a point Exceptional."""


class PhaseRegion(Enum):
    UNBROKEN = "Unbroken"
    BROKEN = "Broken"
    EXCEPTIONAL = "Exceptional"


class Spectrum2(NamedTuple):
    """Eigenvalue pair of one block with its phase tag.

    e_plus has the larger real part in the unbroken region and the
    nonnegative imaginary part in the broken region; the sum is always the
    block trace (2n+1)*homega.
    """

    e_plus: complex
    e_minus: complex
    region: PhaseRegion
    discriminant: float


def phase_rule(delta: float, n: int) -> Callable[[float], tuple[float, bool]]:
    """The phase test of subspace n: a function of one coupling mu giving (disc, exceptional).

    disc = delta**2 - 4*mu**2*(n+1); exceptional is |disc| < max(1e-12 *
    delta**2, (n+1) * 2e-323).  The floor, four ulps of 5e-324 per level,
    binds only where delta**2 < (n+1) * 2e-311, where rounding delta**2 and
    mu**2 into the subnormal range can flip the sign of disc (mu = 0 at zero
    detuning included).  n must already be validated.  The test raises
    ValueError where disc leaves double range.
    """
    delta_sq = delta * delta
    tolerance, levels, inf = max(1e-12 * delta_sq, (n + 1) * 2e-323), n + 1, math.inf

    def test(mu: float) -> tuple[float, bool]:
        disc = delta_sq - 4.0 * (mu * mu) * levels
        if not -inf < disc < inf:
            raise ValueError(f"the discriminant of subspace {n} overflows: alpha, homega or mu is too large")
        return disc, abs(disc) < tolerance

    return test


def phase(params: ModelParams, n: int) -> tuple[PhaseRegion, float]:
    """(region, disc) of the (n+1)-th subspace.

    The coalescence point is its own region, not part of the unbroken side:
    the metric and the partition function are singular there.
    """
    disc, exceptional = phase_rule(params.delta, check_subspace_index(n))(params.mu)
    if exceptional:
        return PhaseRegion.EXCEPTIONAL, disc
    return (PhaseRegion.UNBROKEN if disc > 0.0 else PhaseRegion.BROKEN), disc


def classify(params: ModelParams, n: int) -> PhaseRegion:
    """Phase of the (n+1)-th subspace: Unbroken, Broken or Exceptional."""
    return phase(params, n)[0]


def block_spectrum(params: ModelParams, n: int) -> Spectrum2:
    """Eigenvalues (2n+1)*homega/2 +- sqrt(disc)/2 with a fixed branch order."""
    region, disc = phase(params, n)
    center = 0.5 * (2 * n + 1) * params.homega
    if region is PhaseRegion.UNBROKEN:
        half = 0.5 * math.sqrt(disc)
        return Spectrum2(complex(center + half), complex(center - half), region, disc)
    if region is PhaseRegion.BROKEN:
        half = 0.5 * math.sqrt(-disc)
        return Spectrum2(complex(center, half), complex(center, -half), region, disc)
    return Spectrum2(complex(center), complex(center), region, disc)


def critical_coupling(params: ModelParams, n: int) -> float:
    """Coupling at which the two block eigenvalues coalesce: |delta| / (2 sqrt(n+1))."""
    n = check_subspace_index(n)
    return abs(params.delta) / (2.0 * math.sqrt(n + 1.0))

