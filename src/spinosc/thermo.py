"""Metric-weighted partition function per subspace and the thermodynamic observables.

Observables come from the closed scalar forms of Z = tr(exp(-H/tau) * eta)
(b = D/2, bt = Dt/2, center = (2n+1)*homega/2):

  unbroken:  Z = (2|delta|/D) * exp(-center/tau) * cosh(b/tau)
  broken:    Z = (4 mu sqrt(n+1)/Dt) * exp(-center/tau) * cos(bt/tau)

and differentiating ln Z in tau:

  F          = -tau ln Z                      (defined only where Z > 0)
  S          = ln(2|delta|/D) + ln cosh(b/tau) - (b/tau) tanh(b/tau)
  S (broken) = ln(4 mu sqrt(n+1)/Dt) + ln cos(bt/tau) + (bt/tau) tan(bt/tau)
  C_v        = (b/tau)^2 sech^2(b/tau)   >= 0
  C_v(broken)= -(bt/tau)^2 sec^2(bt/tau) <= 0

The matrix trace itself (partition_function, free_energy) is the oracle the
closed forms are validated against in the verification suite and the tests.

The broken-region Z can be negative (cos factor) at small tau; points there
are flagged rather than clamped, F and S become undefined, and C_v is still
meaningful because it only involves derivatives of ln|Z|.  Z, F and S are
also undefined where Z leaves double range.  Everything is singular at the
coalescence point itself and construction is refused there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import ExceptionalPoint, eta
from .model import ModelParams, build_block, check_subspace_index
from .smallmat import expm2
from .spectral import PhaseRegion, classify, discriminant

__all__ = [
    "StencilCrossesSingularity",
    "ThermoPoint",
    "DerivativeCheck",
    "partition_function",
    "partition_function_closed",
    "log_partition_derivatives",
    "free_energy",
    "entropy",
    "specific_heat",
    "thermo_point",
    "finite_diff_check",
]


class StencilCrossesSingularity(ArithmeticError):
    """Finite-difference stencil straddles a zero of the partition function."""


@dataclass(frozen=True)
class ThermoPoint:
    """One (n, mu, tau) evaluation; observables are None where undefined."""

    n: int
    mu: float
    tau: float
    region: PhaseRegion
    z: float | None
    free_energy: float | None
    entropy: float | None
    specific_heat: float | None
    z_positive: bool


@dataclass(frozen=True)
class DerivativeCheck:
    d1_analytic: float
    d1_numeric: float
    d2_analytic: float
    d2_numeric: float
    rel_err_d1: float
    rel_err_d2: float


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"tau must be a positive energy, got {tau}")
    return tau


def _branch(params: ModelParams, n: int):
    """(region, center, half_gap, prefactor) shared by the closed forms.

    half_gap is D/2 (unbroken) or Dt/2 (broken); prefactor is the metric
    trace 2|delta|/D or 4 mu sqrt(n+1)/Dt.
    """
    region = classify(params, n)
    if region is PhaseRegion.EXCEPTIONAL:
        raise ExceptionalPoint(
            f"observables are singular at mu = {params.mu} (coalescence for subspace n = {n})"
        )
    disc = discriminant(params, n)
    center = 0.5 * (2 * n + 1) * params.homega
    if region is PhaseRegion.UNBROKEN:
        if params.mu == 0.0:
            # D = |delta| exactly here; avoid sqrt(delta**2) rounding in the
            # Hermitian limit.
            return region, center, 0.5 * abs(params.delta), 2.0
        d = math.sqrt(disc)
        return region, center, 0.5 * d, 2.0 * abs(params.delta) / d
    d = math.sqrt(-disc)
    prefactor = 4.0 * params.mu * math.sqrt(n + 1.0) / d
    return region, center, 0.5 * d, prefactor


def partition_function(params: ModelParams, n: int, tau: float) -> float:
    """Z = tr(exp(-H/tau) * eta) by explicit 2x2 matrix arithmetic.

    This is the ground-truth route.  The trace is real for the real block and
    real metric; the imaginary residue is asserted below 1e-10 relative and
    discarded.
    """
    n = check_subspace_index(n)
    tau = _check_tau(tau)
    g = eta(params, n).matrix
    h = build_block(params, n)
    z = complex(np.trace(expm2(h, -1.0 / tau) @ g))
    if abs(z.imag) > 1e-10 * max(abs(z), 1e-300):
        raise ArithmeticError(f"partition trace has a non-real residue: {z!r}")
    return float(z.real)


def _closed(params: ModelParams, n: int, tau: float):
    """(region, Z, S, C_v) from one _branch record.

    Z and S are None where Z leaves double range, S also where cos(bt/tau) <= 0.
    Raises ExceptionalPoint at the coalescence point.
    """
    region, center, b, prefactor = _branch(params, n)
    x = b / tau
    envelope = prefactor * math.exp(-center / tau)
    if region is PhaseRegion.BROKEN:
        c = math.cos(x)
        t = math.tan(x)
        s = math.log(prefactor) + math.log(c) + x * t if c > 0.0 else None
        return region, envelope * c, s, -(x**2) * (1.0 + t**2)
    try:
        cosh = math.cosh(x)
    except OverflowError:
        cosh = math.inf
    cv = 0.0 if x > 350.0 else x**2 / cosh**2
    z = envelope * cosh
    if not math.isfinite(z):
        return region, None, None, cv
    return region, z, math.log(prefactor) + math.log(cosh) - x * math.tanh(x), cv


def partition_function_closed(params: ModelParams, n: int, tau: float) -> float | None:
    """Closed scalar form of Z, None outside double range; the matrix route agrees to 1e-10 relative."""
    return _closed(params, check_subspace_index(n), _check_tau(tau))[1]


def log_partition_derivatives(params: ModelParams, n: int, tau: float) -> tuple[float, float]:
    """Analytic d(ln Z)/d tau and d^2(ln Z)/d tau^2 (broken region uses ln|Z|)."""
    n = check_subspace_index(n)
    tau = _check_tau(tau)
    region, center, b, _ = _branch(params, n)
    if region is PhaseRegion.UNBROKEN:
        t = math.tanh(b / tau)
        sech_sq = 1.0 / math.cosh(b / tau) ** 2
        d1 = center / tau**2 - (b / tau**2) * t
        d2 = -2.0 * center / tau**3 + 2.0 * b * t / tau**3 + b**2 * sech_sq / tau**4
        return d1, d2
    t = math.tan(b / tau)
    sec_sq = 1.0 + t * t
    d1 = center / tau**2 + (b / tau**2) * t
    d2 = -2.0 * center / tau**3 - 2.0 * b * t / tau**3 - b**2 * sec_sq / tau**4
    return d1, d2


def free_energy(params: ModelParams, n: int, tau: float) -> float | None:
    """F = -tau ln Z from the matrix-route Z; None where Z <= 0."""
    tau = _check_tau(tau)
    z = partition_function(params, n, tau)
    if z <= 0.0:
        return None
    return -tau * math.log(z)


def entropy(params: ModelParams, n: int, tau: float) -> float | None:
    """S = ln Z + tau dlnZ/dtau in closed form; None where Z <= 0 or out of range."""
    return _closed(params, check_subspace_index(n), _check_tau(tau))[2]


def specific_heat(params: ModelParams, n: int, tau: float) -> float:
    """C_v = 2 tau dlnZ/dtau + tau^2 d2lnZ/dtau2 in closed form.

    Nonnegative in the unbroken region, nonpositive in the broken region, and
    -> 0 toward the coalescence point (where the exact point itself raises).
    """
    return _closed(params, check_subspace_index(n), _check_tau(tau))[3]


def thermo_point(params: ModelParams, n: int, tau: float) -> ThermoPoint:
    """Bundle Z, F, S, C_v at one point; coalescence yields an all-undefined record."""
    n = check_subspace_index(n)
    tau = _check_tau(tau)
    try:
        region, z, s, cv = _closed(params, n, tau)
    except ExceptionalPoint:
        return ThermoPoint(n, params.mu, tau, PhaseRegion.EXCEPTIONAL, None, None, None, None, False)
    z_positive = z is not None and z > 0.0
    f = -tau * math.log(z) if z_positive else None
    return ThermoPoint(n, params.mu, tau, region, z, f, s if z_positive else None, cv, z_positive)


def finite_diff_check(params: ModelParams, n: int, tau: float, step: float) -> DerivativeCheck:
    """Centered-difference ln Z derivatives against the analytic forms.

    Uses the matrix-route Z at the three stencil points.  Raises
    StencilCrossesSingularity when any stencil Z is nonpositive (the log is
    about to cross a cos zero), ValueError when tau - step leaves the domain.
    """
    n = check_subspace_index(n)
    tau = _check_tau(tau)
    step = float(step)
    if not math.isfinite(step) or step <= 0.0 or tau - step <= 0.0:
        raise ValueError(f"step must satisfy 0 < step < tau, got {step}")

    samples = [partition_function(params, n, t) for t in (tau - step, tau, tau + step)]
    if any(z <= 0.0 for z in samples):
        raise StencilCrossesSingularity(
            f"partition function nonpositive on the stencil around tau = {tau}"
        )
    lo, mid, hi = (math.log(z) for z in samples)
    d1_num = (hi - lo) / (2.0 * step)
    d2_num = (hi - 2.0 * mid + lo) / step**2
    d1_ana, d2_ana = log_partition_derivatives(params, n, tau)
    rel1 = abs(d1_num - d1_ana) / max(abs(d1_ana), 1e-300)
    rel2 = abs(d2_num - d2_ana) / max(abs(d2_ana), 1e-300)
    return DerivativeCheck(d1_ana, d1_num, d2_ana, d2_num, rel1, rel2)
