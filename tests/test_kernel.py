"""The grid kernel against the row-by-row scalar closed forms and 50-digit values.

`reference_row` is the math-module evaluation that run_sweep used to make one
point at a time; closed_forms must reproduce it on every row of the blocks.  Regions,
validity and which fields are undefined must match exactly.  Values may differ
by a few ulps of rounding, amplified where S or F is a small difference of O(1)
terms; TOL bounds that, fixed from the float64 machine epsilon on the
max(1, |ref|) scale.
"""

import math

import mpmath
import numpy as np
import pytest

from spinosc.model import ModelParams
from spinosc.spectral import PhaseRegion, classify, critical_coupling, discriminant
from spinosc.sweep import SweepSpec
from spinosc.thermo import OBSERVABLE_BITS, closed_forms, entropy, row_kind, specific_heat, thermo_point

from rowview import sweep_rows

TOL = 4096 * np.finfo(np.float64).eps  # 9.1e-13
FIELDS = ("z", "free_energy", "entropy", "specific_heat")


def reference_row(alpha, homega, n, mu, tau, ep_window):
    """(region, Z, F, S, Cv, valid) of one sweep row from the scalar closed forms."""
    params = ModelParams(alpha, homega, mu)
    if abs(mu - critical_coupling(params, n)) <= ep_window:
        return PhaseRegion.EXCEPTIONAL, None, None, None, None, False
    region = classify(params, n)
    if region is PhaseRegion.EXCEPTIONAL:
        return region, None, None, None, None, False
    disc = discriminant(params, n)
    center = 0.5 * (2 * n + 1) * homega
    if region is PhaseRegion.UNBROKEN and mu == 0.0:
        b, prefactor = 0.5 * abs(params.delta), 2.0
    elif region is PhaseRegion.UNBROKEN:
        d = math.sqrt(disc)
        b, prefactor = 0.5 * d, 2.0 * abs(params.delta) / d
    else:
        d = math.sqrt(-disc)
        b, prefactor = 0.5 * d, 4.0 * mu * math.sqrt(n + 1.0) / d
    x = b / tau
    envelope = prefactor * math.exp(-center / tau)
    if region is PhaseRegion.BROKEN:
        c = math.cos(x)
        t = math.tan(x)
        z = envelope * c
        s = math.log(prefactor) + math.log(c) + x * t if c > 0.0 else None
        cv = -(x**2) * (1.0 + t**2)
    else:
        try:
            cosh = math.cosh(x)
        except OverflowError:
            cosh = math.inf
        cv = 0.0 if x > 350.0 else x**2 / cosh**2
        z = envelope * cosh
        if math.isfinite(z):
            s = math.log(prefactor) + math.log(cosh) - x * math.tanh(x)
        else:
            z = s = None
    positive = z is not None and z > 0.0
    f = -tau * math.log(z) if positive else None
    return region, z, f, s if positive else None, cv, positive


def _mu_grid(spec):
    width = (spec.mu_max - spec.mu_min) / (spec.steps - 1)
    return [spec.mu_min + i * width for i in range(spec.steps)]


def _assert_matches_reference(spec):
    rows = sweep_rows(spec)
    expected = [(n, mu) for n in sorted(set(spec.subspaces)) for mu in _mu_grid(spec)]
    assert [(r.n, r.mu) for r in rows] == expected
    worst = 0.0
    for row in rows:
        ref = reference_row(spec.alpha, spec.homega, row.n, row.mu, spec.tau, spec.ep_window)
        assert (row.region, row.valid) == (ref[0], ref[5]), row
        assert row.mu_c == critical_coupling(ModelParams(spec.alpha, spec.homega, 0.0), row.n)
        for field, want in zip(FIELDS, ref[1:5]):
            got = getattr(row, field)
            assert (got is None) == (want is None), (row, field)
            if want is not None:
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= TOL
    return rows


FIG_GRID = dict(alpha=5.0, homega=1.0, tau=5.0, subspaces=(0, 1, 2, 5), mu_min=0.0, mu_max=4.0, steps=161)


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(FIG_GRID, id="fig"),
        pytest.param(dict(FIG_GRID, tau=1.0, subspaces=tuple(range(50)), steps=201), id="50x201-tau1"),
        pytest.param(dict(FIG_GRID, subspaces=tuple(range(50)), steps=201), id="50x201-tau5"),
        pytest.param(dict(FIG_GRID, alpha=41.0, subspaces=tuple(range(25)), steps=2001), id="alpha41-unbroken"),
        pytest.param(dict(FIG_GRID, alpha=0.3, tau=0.7, subspaces=(0, 3), mu_min=0.0, mu_max=0.5), id="mu-min-0"),
    ],
)
def test_sweep_matches_scalar_reference(spec):
    _assert_matches_reference(SweepSpec(**spec))


def test_sweep_matches_reference_at_classify_exceptional_point():
    # ep_window 0 leaves only classify's tolerance: mu = 2 is mu_c of n = 0.
    rows = _assert_matches_reference(SweepSpec(**dict(FIG_GRID, subspaces=(0,), steps=9), ep_window=0.0))
    assert [r.region for r in rows if r.mu == 2.0] == [PhaseRegion.EXCEPTIONAL]


def test_unbroken_grid_is_unbroken_but_its_last_row():
    rows = sweep_rows(SweepSpec(**dict(FIG_GRID, alpha=41.0, subspaces=tuple(range(25)), steps=201)))
    regions = [r.region for r in rows]
    assert regions[-1] is PhaseRegion.EXCEPTIONAL
    assert set(regions[:-1]) == {PhaseRegion.UNBROKEN}


def test_thermo_point_is_the_kernel_on_one_point():
    for mu, n, tau in [(0.0, 0, 1.0), (1.0, 0, 1.0), (2.5, 0, 2.0), (3.0, 0, 1.0), (0.6, 3, 1.4)]:
        point = thermo_point(ModelParams(5.0, 1.0, mu), n, tau)
        ref = reference_row(5.0, 1.0, n, mu, tau, -1.0)
        assert point.region is ref[0]
        assert point.z_positive == ref[5]
        for field, want in zip(FIELDS, ref[1:5]):
            got = getattr(point, field)
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= TOL * max(1.0, abs(want))


def test_kernel_masks_excluded_points():
    # The window (mu_c, ep_window) = (2.5, 0) excludes the middle point only.
    codes, values = closed_forms(5.0, 1.0, 0, [1.0, 2.5, 3.0], 1.0, (2.5, 0.0))
    kinds = [row_kind(code) for code in codes]
    assert kinds == [
        (PhaseRegion.UNBROKEN, [True] * 4),
        (PhaseRegion.EXCEPTIONAL, [False] * 4),
        (PhaseRegion.BROKEN, [True, False, False, True]),  # Z < 0 at mu = 3, tau = 1
    ]
    assert len(values) == 4 + 2


def test_kernel_raises_no_runtime_warning_at_extremes():
    # math raises where numpy returned inf or NaN: cos(inf) at tau = 5e-324,
    # cosh past x ~ 710, x**2 past 1.3e154.  The kernel must not reach any.
    mu = [0.1 * k for k in range(41)]
    for tau in (5e-324, 1e-320, 1e-160, 1e-3, 1e300):
        for n in (0, 3, 2**53 - 1):
            _, values = closed_forms(5.0, 1.0, n, mu, tau)
            assert all(math.isfinite(value) for value in values)


def _exact(alpha, homega, n, mu, tau):
    """(Z, F, S, Cv) from 50-digit closed forms at the double inputs as given."""
    with mpmath.workdps(50):
        alpha, homega, mu, tau = (mpmath.mpf(v) for v in (alpha, homega, mu, tau))
        delta = homega - alpha
        disc = delta**2 - 4 * mu**2 * (n + 1)
        center = (2 * n + 1) * homega / 2
        if disc > 0:
            d = mpmath.sqrt(disc)
            prefactor, x = 2 * abs(delta) / d, d / (2 * tau)
            factor = mpmath.cosh(x)
            s = mpmath.log(prefactor) + mpmath.log(factor) - x * mpmath.tanh(x)
            cv = x**2 / mpmath.cosh(x) ** 2
        else:
            d = mpmath.sqrt(-disc)
            prefactor, x = 4 * mu * mpmath.sqrt(n + 1) / d, d / (2 * tau)
            factor = mpmath.cos(x)
            s = mpmath.log(prefactor) + mpmath.log(factor) + x * mpmath.tan(x)
            cv = -(x**2) / mpmath.cos(x) ** 2
        z = prefactor * mpmath.exp(-center / tau) * factor
        return float(z), float(-tau * mpmath.log(z)), float(s), float(cv)


@pytest.mark.parametrize(
    "alpha,n,mu,tau",
    [
        (41.0, 2, 0.062, 5.0),  # S ~ 0.003: ln 2 against ln cosh x - x tanh x
        (41.0, 0, 0.0, 5.0),  # the same at the Hermitian point
        (41.0, 18, 2.02, 5.0),  # F ~ 7e-5: Z ~ 1
        (5.0, 2, 2.466, 5.0),  # F ~ 7e-6, broken
        (5.0, 0, 2.306, 1.0),  # F ~ -1.6e-4, broken
        (5.0, 10, 1.954, 1.0),  # S ~ 1.3e-4, broken
    ],
)
def test_kernel_against_50_digit_values_where_s_or_f_cancels(alpha, n, mu, tau):
    point = thermo_point(ModelParams(alpha, 1.0, mu), n, tau)
    got = (point.z, point.free_energy, point.entropy, point.specific_heat)
    for value, want in zip(got, _exact(alpha, 1.0, n, mu, tau)):
        assert abs(value - want) <= TOL * max(1.0, abs(want))


@pytest.mark.parametrize("tau", [1e-160, 1e-320])
def test_tiny_tau_broken_point_is_undefined(tau):
    params = ModelParams(5.0, 1.0, 3.0)
    point = thermo_point(params, 0, tau)
    assert point.region is PhaseRegion.BROKEN
    assert (point.z, point.free_energy, point.entropy, point.specific_heat) == (None, None, None, None)
    assert not point.z_positive
    assert entropy(params, 0, tau) is None
    assert specific_heat(params, 0, tau) is None


def test_overflowing_discriminant_is_a_value_error():
    with pytest.raises(ValueError, match="overflows"):
        thermo_point(ModelParams(5.0, 1.0, 1e300), 0, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        closed_forms(5.0, 1.0, 0, [1.0, 1e200], 1.0)


def test_unbroken_cv_is_zero_past_x_350():
    # b = sqrt(3) at mu = 1, n = 0; the exact C_v there is below 1e-298.
    params = ModelParams(5.0, 1.0, 1.0)
    b = math.sqrt(3.0)
    assert 0.0 < specific_heat(params, 0, b / 349.0) < 1e-290
    for tau in (b / 351.0, 1e-320):
        assert specific_heat(params, 0, tau) == 0.0


def _two_level_row(n, homega, delta, tau):
    """(Z, F, S, C_v) of the Hermitian two-level form, None where undefined."""
    x = 0.5 * abs(delta) / tau
    try:
        cosh = math.cosh(x)
    except OverflowError:
        cosh = math.inf
    z = 2.0 * math.exp(-0.5 * (2 * n + 1) * homega / tau) * cosh
    cv = 0.0 if x > 350.0 else x * x / (cosh * cosh)
    if not 0.0 < abs(z) < math.inf:
        return None, None, None, cv
    f = -tau * math.log(z)
    s = math.log(2.0) + math.log(cosh) - x * math.tanh(x)
    return z, f if math.isfinite(f) else None, s if math.isfinite(s) else None, cv


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [0, 5])
def test_hermitian_limit_is_the_two_level_form_bit_for_bit(n, sign):
    # At mu = +-0 the discriminant is exactly delta**2 and sqrt(delta**2) is
    # |delta|, so the general unbroken form gives Z = 2 e^{-center/tau}
    # cosh(|delta|/2tau), and S, C_v from it, in the same operations.
    homega = 1.0
    defined = 0
    for magnitude in np.logspace(-5, 150, 156).tolist():
        alpha = homega - sign * magnitude
        delta = homega - alpha
        for tau in (1.0, 1e-3 * magnitude, 0.3 * magnitude, magnitude, 1e3 * magnitude):
            codes, values = closed_forms(alpha, homega, n, [0.0, -0.0], tau)
            row = _two_level_row(n, homega, delta, tau)
            code = sum(bit for bit, value in zip(OBSERVABLE_BITS, row) if value is not None)  # region 0
            assert codes == bytes([code, code])
            assert [value.hex() for value in values] == [value.hex() for value in row if value is not None] * 2
            defined += sum(all(row_kind(code)[1][1:]) for code in codes)
    assert defined > 1000


@pytest.mark.parametrize("scale", [1.0, 2.0**-20, 2.0**20])
@pytest.mark.parametrize("n", [0, 7])
def test_kernel_and_classify_share_the_phase_rule(n, scale):
    # Within 2e-12 of mu_c (relative) the tolerance test decides the region; the
    # kernel's grid path and classify's point path must decide it alike at
    # every scale of the inputs.
    alpha, homega, tau = 5.0 * scale, 1.0 * scale, 1.3 * scale
    mu_c = critical_coupling(ModelParams(alpha, homega, 0.0), n)
    mu = [mu_c * (1.0 + sign * k * 1e-13) for k in range(21) for sign in (1.0, -1.0)]
    region = [row_kind(code)[0] for code in closed_forms(alpha, homega, n, mu, tau).codes]
    assert region == [classify(ModelParams(alpha, homega, m), n) for m in mu]
