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

One kernel, closed_forms, evaluates these over a sequence of couplings of
one subspace: each row gets a code (its region and which observables are
defined), and the defined values of all rows go, in row order, into one
list of floats that its callers use as it is.  The couplings must be
nondecreasing (a sweep part and a one-point grid are).  Along them the
discriminant falls, so the grid is three runs in a fixed order, any of them
empty: the unbroken rows, the Exceptional rows (phase_rule's band and the
ep window centred on the subspace's mu_c) and the broken rows.  The kernel
finds the runs by bisection and evaluates each in one loop with no per-row
phase test, which meets cosh(x) overflowing or an infinite x as the
exception math raises.
thermo_point runs it on a one-point grid, and the scalar accessors and
finite_diff_check read their values through thermo_point; emit and
run_sweep run it once per unit of a sweep (one subspace times one part of
its grid).  The row-by-row loop it replaced lives in the tests as the
reference for its codes and bits.  The matrix trace itself
(partition_function) is the oracle the closed forms are validated against
in the verification suite and the tests; it is 2x2 complex arithmetic with
no numpy, and it imports the matrix modules (metric, smallmat) only when it
runs, not when thermo loads: `import spinosc.thermo` loads model, spectral
and thermo alone.
finite_diff_check differentiates the matrix-route ln Z numerically and
compares it with d lnZ/d tau = U/tau^2 and d2 lnZ/d tau2 derived from the
kernel's F, S and C_v, so that oracle checks the production S and C_v.

The broken-region Z can be negative (cos factor) at small tau; points there
are flagged rather than clamped, F and S become undefined, and C_v is still
meaningful because it only involves derivatives of ln|Z|.  Any observable
that leaves double range, or that depends on cos/tan of a b/tau beyond double
range, is undefined too; the unbroken C_v is 0 where cosh(b/tau)**2 leaves
double range (b/tau past ~355.58), where its exact value is below 7.1e-304.
Everything is singular at the coalescence point itself: observables are
undefined and accessors raise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from typing import NamedTuple

from .model import ModelParams, build_block, check_subspace_index
from .spectral import ExceptionalPoint, PhaseRegion, critical_coupling, phase_rule

__all__ = [
    "StencilCrossesSingularity",
    "ThermoPoint",
    "DerivativeCheck",
    "REGIONS",
    "OBSERVABLE_BITS",
    "ClosedForms",
    "row_kind",
    "closed_forms",
    "partition_function",
    "entropy",
    "specific_heat",
    "thermo_point",
    "finite_diff_check",
]


class StencilCrossesSingularity(ArithmeticError):
    """Finite-difference stencil straddles a zero of the partition function."""


class ThermoPoint(NamedTuple):
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


class DerivativeCheck(NamedTuple):
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


def partition_function(params: ModelParams, n: int, tau: float) -> float:
    """Z = tr(exp(-H/tau) * eta) by explicit 2x2 matrix arithmetic.

    This is the ground-truth route.  The trace is real for the real block and
    real metric; the imaginary residue is asserted below 1e-10 relative and
    discarded.  Raises OverflowError where exp(-H/tau) or the trace leaves
    double range.
    """
    from .metric import eta
    from .smallmat import expm2
    n = check_subspace_index(n)
    tau = _check_tau(tau)
    g = eta(params, n).matrix
    (e00, e01), (e10, e11) = expm2(build_block(params, n), -1.0 / tau)
    z = (e00 * g[0][0] + e01 * g[1][0]) + (e10 * g[0][1] + e11 * g[1][1])
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OverflowError(f"the partition trace leaves double range at tau = {tau!r}")
    if abs(z.imag) > 1e-10 * max(abs(z), 1e-300):
        raise ArithmeticError(f"partition trace has a non-real residue: {z!r}")
    return z.real


REGIONS = (PhaseRegion.UNBROKEN, PhaseRegion.BROKEN, PhaseRegion.EXCEPTIONAL)

OBSERVABLE_BITS = (8, 4, 2, 1)
"""A row code's bit for each of Z, F, S and C_v, set where the value is defined."""


class ClosedForms(NamedTuple):
    """Observables over a coupling grid, one code per row and the defined values in row order.

    A row's code is 16 times its region's index in REGIONS plus the
    OBSERVABLE_BITS of its defined observables; `values` is the list of
    those floats, in the order Z, F, S, C_v, row after row.
    """

    codes: bytes
    values: list[float]


def row_kind(code: int) -> tuple[PhaseRegion, list[bool]]:
    """The region of a row code and, for each of Z, F, S and C_v, whether it is defined.

    A row is valid where F, S and C_v are all defined.
    """
    return REGIONS[code >> 4], [bool(code & bit) for bit in OBSERVABLE_BITS]


def _put_defined(values: list[float], region: int, observables: tuple[float, float, float, float]) -> int:
    """The code of a row one of whose values is out of range; its defined values go to values.

    Z == 0 is an underflow: the closed form never vanishes.
    """
    code = region
    for bit, value in zip(OBSERVABLE_BITS, observables):
        if -math.inf < value < math.inf and (value or bit != 8):
            code |= bit
            values.append(value)
    return code


def _unbroken_rows(mu, delta_sq, quad, tau, damping, two_delta, codes, values) -> None:
    """Codes and values of unbroken rows; C_v is x**2 / cosh(x)**2 where cosh(x)**2 is finite (x <= ~355.58), else 0."""
    sqrt, cosh, tanh, log, inf, nan = math.sqrt, math.cosh, math.tanh, math.log, math.inf, math.nan
    end_row, put, neg_tau = codes.append, values.extend, -tau
    for m in mu:
        # At mu == 0 disc is exactly delta**2, whose sqrt is |delta| for
        # every delta with a normal square: the Hermitian limit comes out exact.
        d = sqrt(delta_sq - (m * m) * quad)
        x = 0.5 * d / tau
        prefactor = two_delta / d
        try:
            c = cosh(x)
        except OverflowError:  # x past ~710.48: Z, F and S are out of range too
            c = inf
        cv = x * x / (c * c)
        z = prefactor * damping * c
        if z > 0.0:  # an infinite Z makes F infinite, which the range test below catches
            f = neg_tau * log(z)
            s = log(prefactor) + log(c) - x * tanh(x)
            if -inf < f + s + cv < inf:
                put((z, f, s, cv))
                end_row(15)
                continue
        if c == inf:  # x * x / (c * c) is NaN where x * x overflows too, x = inf included
            cv = 0.0
        end_row(_put_defined(values, 0, (z, f, s, cv) if 0.0 < z < inf else (z, nan, nan, cv)))


def _broken_rows(mu, delta_sq, quad, tau, damping, four_root, codes, values) -> None:
    """Codes and values of broken rows, x = Dt/2tau growing along them; cos and tan of an infinite x are undefined."""
    sqrt, cos, tan, log, inf, nan = math.sqrt, math.cos, math.tan, math.log, math.inf, math.nan
    end_row, put, neg_tau = codes.append, values.extend, -tau
    for m in mu:
        d = sqrt((m * m) * quad - delta_sq)
        x = 0.5 * d / tau
        prefactor = m * four_root / d
        try:
            c = cos(x)
            t = tan(x)
        except ValueError:  # x is infinite
            end_row(16)
            continue
        cv = x * x * (-1.0 - t * t)
        z = prefactor * damping * c
        if z > 0.0:  # an infinite Z makes F infinite, which the range test below catches
            f = neg_tau * log(z)
            s = log(prefactor) + log(c) + x * t
            if -inf < f + s + cv < inf:
                put((z, f, s, cv))
                end_row(31)
                continue
        elif -inf < z < 0.0 and -inf < cv < inf:  # no F or S where Z < 0
            put((z, cv))
            end_row(25)
            continue
        end_row(_put_defined(values, 16, (z, f, s, cv) if 0.0 < z < inf else (z, nan, nan, cv)))


def closed_forms(
    alpha: float, homega: float, n: int, mu: Iterable[float], tau: float, ep_window: float | None = None
) -> ClosedForms:
    """Z, F, S and C_v of subspace n at every coupling in `mu`, at one tau, run by run: Unbroken, Exceptional, Broken.

    A point is Exceptional where spectral.phase_rule tags it, or within
    ep_window of the subspace's spectral.critical_coupling, and has no
    observables; with no ep_window only phase_rule decides.  mu is any
    iterable of nonnegative couplings in nondecreasing order.  n and tau
    must already be validated.  Raises ValueError at an unsorted grid, a NaN
    or a negative coupling, and where the discriminant leaves double range.
    """
    mu = list(mu)
    total = sum(mu)  # NaN where a coupling is NaN, which sorted() would leave anywhere
    if not (total == total and mu == sorted(mu)):
        raise ValueError("mu must be a nondecreasing grid of couplings with no NaN")
    if not mu:
        return ClosedForms(b"", [])
    if mu[0] < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu[0]}")
    delta = homega - alpha
    test = phase_rule(delta, n)
    test(mu[-1])  # disc falls as mu grows: it leaves double range at the grid's end first
    # phase_rule's discriminant delta_sq - 4.0 * (m * m) * (n + 1) is delta_sq - (m * m) * quad:
    # scaling by 4 is exact, and so is n + 1 as a double, so both round one product.
    delta_sq, quad = delta * delta, 4.0 * (n + 1.0)
    center = 0.5 * (2 * n + 1) * homega
    damping = math.exp(-center / tau)
    two_delta = 2.0 * abs(delta)
    four_root = 4.0 * math.sqrt(n + 1.0)
    mu_c = 0.0 if ep_window is None else critical_coupling(ModelParams(alpha, homega, 0.0), n)
    ep_window = -math.inf if ep_window is None else ep_window  # no row is within -inf of mu_c

    def rank(m):  # 0 Unbroken, 1 Exceptional, 2 Broken: nondecreasing in m >= 0, as disc falls
        # disc(mu_c) is rounding noise inside phase_rule's band, floor included: window and band are one interval.
        disc, exceptional = test(m)
        return 1 if exceptional or abs(m - mu_c) <= ep_window else 0 if disc > 0.0 else 2

    # A code is 16 * region (0 Unbroken, 1 Broken, 2 Exceptional) + the defined bits.
    codes = bytearray()
    values = []
    unbroken_end = bisect_left(mu, 1, key=rank)
    broken_start = bisect_left(mu, 2, unbroken_end, key=rank)
    if unbroken_end:
        _unbroken_rows(mu[:unbroken_end], delta_sq, quad, tau, damping, two_delta, codes, values)
    codes += b"\x20" * (broken_start - unbroken_end)
    if broken_start < len(mu):
        _broken_rows(mu[broken_start:], delta_sq, quad, tau, damping, four_root, codes, values)
    return ClosedForms(bytes(codes), values)


def _defined(params: ModelParams, n: int, tau: float):
    """(Z, F, S, C_v) of one point; raises ExceptionalPoint at the coalescence point."""
    point = thermo_point(params, n, tau)
    if point.region is PhaseRegion.EXCEPTIONAL:
        raise ExceptionalPoint(f"observables are singular at mu = {params.mu} (coalescence for subspace n = {point.n})")
    return point[4:8]


def entropy(params: ModelParams, n: int, tau: float) -> float | None:
    """S = ln Z + tau dlnZ/dtau in closed form; None where Z <= 0 or out of range."""
    return _defined(params, n, tau)[2]


def specific_heat(params: ModelParams, n: int, tau: float) -> float | None:
    """C_v = 2 tau dlnZ/dtau + tau^2 d2lnZ/dtau2 in closed form; None out of range.

    Nonnegative in the unbroken region, nonpositive in the broken region, and
    -> 0 toward the coalescence point (where the exact point itself raises).
    """
    return _defined(params, n, tau)[3]


def thermo_point(params: ModelParams, n: int, tau: float) -> ThermoPoint:
    """Z, F, S, C_v at one point from the kernel on a one-point grid; coalescence yields an all-undefined record."""
    n = check_subspace_index(n)
    tau = _check_tau(tau)
    (code,), values = closed_forms(params.alpha, params.homega, n, (params.mu,), tau)
    region, defined = row_kind(code)
    values = iter(values)
    z, f, s, cv = (next(values) if flag else None for flag in defined)
    return ThermoPoint(n, params.mu, tau, region, z, f, s, cv, z is not None and z > 0.0)


def finite_diff_check(params: ModelParams, n: int, tau: float) -> DerivativeCheck:
    """Centered-difference ln Z derivatives, with step 1e-4 * tau, against the kernel's S and C_v.

    The differences take the matrix-route Z at the three stencil points; the
    analytic derivatives come from the kernel's F, S and C_v at tau, as
    d1 = U/tau^2 = (F/tau + S)/tau and d2 = (C_v/tau - 2 d1)/tau.  Raises
    StencilCrossesSingularity when any stencil Z is negative (the log is
    about to cross a cos zero), OverflowError where a stencil Z underflows to
    0 or the kernel leaves F, S or C_v undefined, ArithmeticError where the
    step underflows to 0 or tau + step overflows.
    """
    n = check_subspace_index(n)
    tau = _check_tau(tau)
    step = 1e-4 * tau
    if step == 0.0 or math.isinf(tau + step):
        raise ArithmeticError(f"the stencil tau +- 1e-4 tau around tau = {tau} leaves double range")

    samples = [partition_function(params, n, t) for t in (tau - step, tau, tau + step)]
    if any(z < 0.0 for z in samples):
        raise StencilCrossesSingularity(f"partition function negative on the stencil around tau = {tau}")
    if 0.0 in samples:
        raise OverflowError(f"partition function underflows to 0 on the stencil around tau = {tau}")
    lo, mid, hi = (math.log(z) for z in samples)
    d1_num = (hi - lo) / (2.0 * step)
    d2_num = (hi - 2.0 * mid + lo) / step / step
    _, f, s, cv = _defined(params, n, tau)
    if None in (f, s, cv):
        raise OverflowError(f"F, S or C_v is undefined at mu = {params.mu}, n = {n}, tau = {tau}")
    d1_ana = (f / tau + s) / tau
    d2_ana = (cv / tau - 2.0 * d1_ana) / tau
    rel1 = abs(d1_num - d1_ana) / max(abs(d1_ana), 1e-300)
    rel2 = abs(d2_num - d2_ana) / max(abs(d2_ana), 1e-300)
    return DerivativeCheck(d1_ana, d1_num, d2_ana, d2_num, rel1, rel2)
