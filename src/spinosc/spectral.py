"""Closed-form block spectra, phase classification, and exceptional-point location.

phase_rule is the one home of the phase rule.  It forms the discriminant
delta**2 - 4*mu**2*(n+1) in real arithmetic before any square root, so the
unbroken/broken decision is a sign test rather than a complex-rounding artifact.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .model import ModelParams, check_subspace_index
from .smallmat import ep_tolerance

__all__ = [
    "PhaseRegion",
    "Spectrum2",
    "NoSignChange",
    "phase_rule",
    "phase",
    "classify",
    "block_spectrum",
    "critical_coupling",
    "locate_ep_numeric",
]


class PhaseRegion(Enum):
    UNBROKEN = "Unbroken"
    BROKEN = "Broken"
    EXCEPTIONAL = "Exceptional"


class NoSignChange(ValueError):
    """Bisection bracket does not straddle a discriminant sign change."""


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

    disc = delta**2 - 4*mu**2*(n+1), and exceptional is |disc| <
    ep_tolerance(delta**2).  n must already be validated.  The test raises
    ValueError where disc leaves double range.
    """
    delta_sq = delta * delta
    tolerance = ep_tolerance(delta_sq)
    levels, inf = n + 1, math.inf

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


def locate_ep_numeric(alpha: float, homega: float, n: int, bracket: tuple[float, float]) -> float:
    """Bisection on the discriminant sign over a mu bracket.

    Independent of critical_coupling and phase_rule: only evaluates
    delta**2 - 4*mu**2*(n+1) and halves the bracket until it is narrower than
    1e-12 or its ends are adjacent doubles.
    """
    n = check_subspace_index(n)
    delta = ModelParams(alpha, homega, 0.0).delta
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"invalid bracket {bracket!r}")
    delta_sq = delta * delta

    def f(mu: float) -> float:
        return delta_sq - 4.0 * mu * mu * (n + 1)

    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(f"discriminant has the same sign at both ends of {bracket!r}")

    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # the ends are adjacent doubles
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
