"""The grid kernel against the row-by-row scalar closed forms and 50-digit values.

`reference_row` is the math-module evaluation that run_sweep used to make one
point at a time; closed_forms must reproduce it on every row of the blocks.  Regions,
validity and which fields are undefined must match exactly.  Values may differ
by a few ulps of rounding, amplified where S or F is a small difference of O(1)
terms; TOL bounds that, fixed from the float64 machine epsilon on the
max(1, |ref|) scale.

`reference_closed_forms` is the per-row loop that closed_forms replaced, which
classified and branched every row on its own.  Its arithmetic is unchanged,
so closed_forms must give the same codes and the same value bits.
"""

import math
import random
from array import array

import mpmath
import numpy as np
import pytest

from spinosc import thermo
from spinosc.model import ModelParams
from spinosc.spectral import PhaseRegion, classify, critical_coupling, phase, phase_rule
from spinosc.sweep import EP_WINDOW, SweepBlock, SweepSpec, render_csv
from spinosc.thermo import (
    OBSERVABLE_BITS,
    ClosedForms,
    closed_forms,
    entropy,
    row_kind,
    specific_heat,
    thermo_point,
)

from rowview import block_rows, cli_rows, sweep_rows

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
    disc = phase(params, n)[1]
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
        cv = x * x / (cosh * cosh) if cosh * cosh < math.inf else 0.0
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
    window = EP_WINDOW * abs(spec.homega - spec.alpha)
    return _assert_rows_match_reference(rows, spec.alpha, spec.homega, spec.tau, window)


def _kernel_rows(alpha, homega, n, mu, tau, ep_window):
    """The rows of one closed_forms call, as a sweep block of them reads."""
    mu_c = critical_coupling(ModelParams(alpha, homega, 0.0), n)
    block = SweepBlock(n, mu_c, array("d", mu), tau, closed_forms(alpha, homega, n, mu, tau, ep_window))
    return list(block_rows(block))


def _assert_rows_match_reference(rows, alpha, homega, tau, ep_window):
    worst = 0.0
    for row in rows:
        ref = reference_row(alpha, homega, row.n, row.mu, tau, ep_window)
        assert (row.region, row.valid) == (ref[0], ref[5]), row
        assert row.mu_c == critical_coupling(ModelParams(alpha, homega, 0.0), row.n)
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
    rows = _kernel_rows(5.0, 1.0, 0, _linspace(0.0, 4.0, 9), 5.0, 0.0)
    _assert_rows_match_reference(rows, 5.0, 1.0, 5.0, 0.0)
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
    # The window is centred on mu_c = 2 of n = 0: width 0 masks mu_c alone,
    # width 0.5 its neighbours too, whose distance to mu_c is exactly 0.5.
    unbroken, broken = (PhaseRegion.UNBROKEN, [True] * 4), (PhaseRegion.BROKEN, [True] * 4)
    masked = (PhaseRegion.EXCEPTIONAL, [False] * 4)
    negative_z = (PhaseRegion.BROKEN, [True, False, False, True])  # Z < 0 at mu = 3, tau = 1
    mu = [1.0, 1.5, 2.0, 2.5, 3.0]
    for ep_window, kinds, defined in [
        (0.0, [unbroken, unbroken, masked, broken, negative_z], 4 + 4 + 4 + 2),
        (0.5, [unbroken, masked, masked, masked, negative_z], 4 + 2),
    ]:
        codes, values = closed_forms(5.0, 1.0, 0, mu, 1.0, ep_window)
        assert [row_kind(code) for code in codes] == kinds
        assert len(values) == defined


def test_a_window_wider_than_the_grid_masks_every_row():
    grid = _linspace(0.0, 4.0, 41)
    blocks = []
    for n in (0, 3):
        columns = closed_forms(5.0, 1.0, n, grid, 1.0, 1e308)
        assert columns == ClosedForms(b"\x20" * 41, [])
        blocks.append(SweepBlock(n, critical_coupling(ModelParams(5.0, 1.0, 0.0), n), array("d", grid), 1.0, columns))
    rows = [line.split(",") for line in render_csv(blocks).splitlines()[1:]]
    assert len(rows) == 2 * 41
    assert all(row[3] == "Exceptional" and row[5:] == ["", "", "", "", "false"] for row in rows)


def test_the_narrowest_window_masks_only_the_row_at_mu_c():
    # The grid's step is 0.1, so rows 10 and 20 are exactly mu_c of n = 3 and of n = 0.
    grid = _linspace(0.0, 4.0, 41)
    rows = [row for n in (0, 3) for row in _kernel_rows(5.0, 1.0, n, grid, 1.0, 0.0)]
    assert [(r.n, r.mu) for r in rows if r.region is PhaseRegion.EXCEPTIONAL] == [(0, 2.0), (3, 1.0)]
    # The sweep's own window, 1e-6 here, masks the same two rows.
    argv = ["--alpha", "5", "--homega", "1", "sweep", "--tau", "1", "--subspaces", "0", "3"]
    rows = cli_rows(*argv, "--mu-min", "0", "--mu-max", "4", "--steps", "41")
    assert [(r.n, r.mu) for r in rows if r.region is PhaseRegion.EXCEPTIONAL] == [(0, 2.0), (3, 1.0)]


def test_kernel_values_are_one_list_of_floats():
    codes, values = closed_forms(5.0, 1.0, 0, [0.0, 1.0, 2.0, 3.0], 1.0)
    assert type(values) is list and len(values) == 4 + 4 + 2
    assert all(type(value) is float for value in values)


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


def _cv_column(codes, values):
    """The C_v of each row of a kernel result, None where it is undefined."""
    values = iter(values)
    column = []
    for code in codes:
        defined = [next(values) for flag in row_kind(code)[1] if flag]
        column.append(defined[-1] if code & 1 else None)
    return column


def test_unbroken_cv_against_50_digit_values_across_the_overflow_edges():
    # b = sqrt(4 - mu**2) at alpha 5, n 0, so x = b/tau falls from 720 to ~72 along the grid: it
    # crosses ~710.48, where cosh(x) overflows, ~355.58, where cosh(x)**2 does, and 350.
    tau = 2 / 720.0
    mu = _linspace(0.0, 1.99, 2001)
    codes, values = closed_forms(5.0, 1.0, 0, mu, tau)
    kinds = set()
    with mpmath.workdps(50):
        for m, code, cv in zip(mu, codes, _cv_column(codes, values)):
            x = 0.5 * math.sqrt(16.0 - (m * m) * 4.0) / tau  # the kernel's double x
            try:
                c = math.cosh(x)
            except OverflowError:
                c = None
            if c is None:
                assert (code, cv) == (1, 0.0), m  # Z, F and S are out of range
                kinds.add("cosh overflows")
            elif c * c == math.inf:
                assert (code, cv) == (15, 0.0), m
                kinds.add("cosh squared overflows")
            else:
                assert code == 15, m
                at_x = mpmath.mpf(x) ** 2 / mpmath.cosh(x) ** 2
                exact_x = mpmath.sqrt(4 - mpmath.mpf(m) ** 2) / mpmath.mpf(tau)
                exact = exact_x**2 / mpmath.cosh(exact_x) ** 2
                # A few ulps at the double x; the rounding of x itself moves C_v by ~2x ulps of x.
                assert abs(cv - at_x) <= 4 * np.finfo(np.float64).eps * at_x, m
                assert abs(cv - exact) <= TOL * exact, m
                kinds.add("past 350" if x > 350.0 else "at most 350")
    assert kinds == {"cosh overflows", "cosh squared overflows", "past 350", "at most 350"}
    # x = 2/tau at mu = 0 is infinite at tau = 5e-324, where cosh returns inf without raising, and
    # 2e160 at 1e-160, where x * x overflows too: C_v is 0 at both.  At 5e-324 the x of the broken
    # mu = 3 is infinite as well, where cos and tan are undefined.
    assert closed_forms(5.0, 1.0, 0, [0.0, 1.0, 3.0], 5e-324) == ClosedForms(b"\x01\x01\x10", [0.0, 0.0])
    assert closed_forms(5.0, 1.0, 0, [0.0, 1.0], 1e-160) == ClosedForms(b"\x01\x01", [0.0, 0.0])


def _two_level_row(n, homega, delta, tau):
    """(Z, F, S, C_v) of the Hermitian two-level form, None where undefined."""
    x = 0.5 * abs(delta) / tau
    try:
        cosh = math.cosh(x)
    except OverflowError:
        cosh = math.inf
    z = 2.0 * math.exp(-0.5 * (2 * n + 1) * homega / tau) * cosh
    cv = x * x / (cosh * cosh) if cosh * cosh < math.inf else 0.0
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
    mu = sorted(mu_c * (1.0 + sign * k * 1e-13) for k in range(21) for sign in (1.0, -1.0))
    region = [row_kind(code)[0] for code in closed_forms(alpha, homega, n, mu, tau).codes]
    assert region == [classify(ModelParams(alpha, homega, m), n) for m in mu]


def reference_closed_forms(alpha, homega, n, mu, tau, window=None):
    """The per-row kernel that closed_forms replaced: every row tested and branched on its own.

    closed_forms(..., ep_window) must give the same codes and the same bits as
    this loop with window = (critical_coupling, ep_window) on every grid it
    accepts; an unsorted grid, a NaN or a negative coupling, which this loop
    does not refuse, is left out.
    """
    delta = homega - alpha
    test = phase_rule(delta, n)
    center = 0.5 * (2 * n + 1) * homega
    damping = math.exp(-center / tau)
    two_delta = 2.0 * abs(delta)
    root = math.sqrt(n + 1.0)
    mu_c, ep_window = window if window is not None else (0.0, -math.inf)
    inf, nan = math.inf, math.nan
    codes = bytearray()
    values = []
    for m in mu:
        disc, exceptional = test(m)
        if exceptional or abs(m - mu_c) <= ep_window:
            codes.append(32)
            continue
        if disc > 0.0:
            d = math.sqrt(disc)
            x = 0.5 * d / tau
            prefactor = two_delta / d
            try:
                c = math.cosh(x)
            except OverflowError:
                c = inf
            slope = -x * math.tanh(x)
            cv = x * x / (c * c) if c * c < inf else 0.0
            region = 0
        else:
            d = math.sqrt(-disc)
            prefactor = 4.0 * m * root / d
            x = 0.5 * d / tau
            if x == inf:
                codes.append(16)
                continue
            c = math.cos(x)
            t = math.tan(x)
            slope = x * t
            cv = -(x * x) * (1.0 + t * t)
            region = 16
        z = prefactor * damping * c
        if 0.0 < z < inf:
            f = -tau * math.log(z)
            s = math.log(prefactor) + math.log(c) + slope
            if -inf < f + s + cv < inf:
                values.extend((z, f, s, cv))
                codes.append(region | 15)
                continue
        elif -inf < z < 0.0 and -inf < cv < inf:
            values.extend((z, cv))
            codes.append(region | 9)
            continue
        else:
            f = s = nan
        code = region
        for bit, value in zip(OBSERVABLE_BITS, (z, f, s, cv)):
            if -inf < value < inf and (value or bit != 8):
                code |= bit
                values.append(value)
        codes.append(code)
    return ClosedForms(bytes(codes), values)


def _outcome(kernel, *args):
    """(codes, value hex list) of a kernel call, or the type and message of what it raised."""
    try:
        codes, values = kernel(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return codes, [value.hex() for value in values]


def _assert_bit_identical(alpha, homega, n, mu, tau, ep_window=None):
    mu = list(mu)
    got = _outcome(closed_forms, alpha, homega, n, mu, tau, ep_window)
    window = None if ep_window is None else (critical_coupling(ModelParams(alpha, homega, 0.0), n), ep_window)
    assert got == _outcome(reference_closed_forms, alpha, homega, n, mu, tau, window)
    return got


UNSORTED = "mu must be a nondecreasing grid of couplings with no NaN"


def _assert_refused(alpha, homega, n, mu, tau, ep_window=None):
    with pytest.raises(ValueError, match=f"^{UNSORTED}$"):
        closed_forms(alpha, homega, n, mu, tau, ep_window)


def _linspace(lo, hi, steps):
    width = (hi - lo) / (steps - 1)
    return [lo + i * width for i in range(steps)]


def _random_case(rng):
    """One seeded sweep: log-uniform energies, a grid around mu_c, and an ep_window or none."""
    alpha = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-3, 3)
    homega = 10 ** rng.uniform(-3, 3)
    n = rng.choice((0, 1, 3, 10, 100, 10**4, 10**6, 2**53 - 1))
    mu_c = critical_coupling(ModelParams(alpha, homega, 0.0), n)
    tau = abs(homega - alpha) * 10 ** rng.uniform(-5, 4) if rng.random() < 0.9 else 10 ** rng.uniform(-323, -300)
    lo = mu_c * rng.choice((0.0, rng.uniform(0.0, 1.0), 1.0, rng.uniform(1.0, 3.0)))
    hi = lo + mu_c * 10 ** rng.uniform(-13, 1)
    mu = _linspace(lo, hi, rng.randrange(2, 400))
    if rng.random() < 0.2:
        rng.shuffle(mu)
    ep_window = rng.choice((None, 0.0, 1e-6, mu_c * 10 ** rng.uniform(-14, 0)))
    return alpha, homega, n, mu, tau, ep_window


def test_kernel_is_bit_identical_to_the_per_row_loop_on_seeded_sweeps():
    rng = random.Random(20251019)
    kinds, refused = set(), 0
    for _ in range(300):
        alpha, homega, n, mu, tau, ep_window = _random_case(rng)
        if mu != sorted(mu):  # a fifth of the grids come shuffled: refused, then run sorted
            _assert_refused(alpha, homega, n, mu, tau, ep_window)
            mu.sort()
            refused += 1
        codes = _assert_bit_identical(alpha, homega, n, mu, tau, ep_window)[0]
        kinds |= set(codes)
    assert refused > 30
    # Each region; all defined, Z < 0 and values out of range among the rows.
    assert {1, 15, 16, 17, 25, 31, 32} <= kinds


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(_linspace(0.0, 1.9, 2001), id="wholly-unbroken"),
        pytest.param(_linspace(2.1, 40.0, 2001), id="wholly-broken"),
        pytest.param(_linspace(0.0, 4.0, 2001), id="straddling-mu_c"),
        pytest.param(_linspace(2.0, 4.0, 201), id="mu_min-at-mu_c"),
        pytest.param([0.0, -0.0], id="signed-zeros"),
        pytest.param([3.0, 0.5, 2.0, 2.0, 1.0, 4.0, 0.0, 2.0 + 1e-13], id="unsorted"),
    ],
)
@pytest.mark.parametrize(
    "ep_window", [None, 0.0, 1e-6, 0.05, 3.0], ids=["None", "window1", "window2", "window3", "window4"]
)
@pytest.mark.parametrize("tau", [5.0, 0.01, 5e-324, 1e-320, 1e-160, 1e300])
def test_kernel_is_bit_identical_to_the_per_row_loop_at_edges(mu, ep_window, tau):
    # mu_c of n = 0 at alpha 5 is 2; a window of 0.05 is wider than the step,
    # and one of 3.0 covers mu = 0 and every grid but the wholly broken one.
    if mu == sorted(mu):
        _assert_bit_identical(5.0, 1.0, 0, mu, tau, ep_window)
    else:
        _assert_refused(5.0, 1.0, 0, mu, tau, ep_window)


@pytest.mark.parametrize("n", [0, 2**53 - 1])
@pytest.mark.parametrize("alpha", [5.0, 3.0e3, -1e150, 1.000001])
def test_kernel_is_bit_identical_where_x_passes_350_and_710(n, alpha):
    # b = D/2 over tau crosses x = 350, ~355.58 (C_v is 0 once cosh(x)**2 overflows) and ~710.48
    # (cosh overflows) inside the grid.
    delta = 1.0 - alpha
    mu_c = critical_coupling(ModelParams(alpha, 1.0, 0.0), n)
    for tau in (abs(delta) / 600.0, abs(delta) / 1400.0, abs(delta) / 1e6):
        _assert_bit_identical(alpha, 1.0, n, _linspace(0.0, 3.0 * mu_c, 3001), tau, 1e-6 * mu_c)


@pytest.mark.parametrize("ep_window", [None, 0.0])
@pytest.mark.parametrize("alpha,homega", [(1.0, 1.0), (2e-170, 1e-170)], ids=["delta-0", "delta-squared-underflows"])
def test_kernel_at_zero_detuning_divides_by_no_zero_discriminant(alpha, homega, ep_window):
    # delta**2 is 0, so the phase rule's band is its subnormal floor alone: mu = 0, where disc == 0 (and every
    # mu whose square underflows), is Exceptional, and every larger coupling is broken with disc < 0.
    for hi in (4.0, 1e-6, 1e-160):
        for tau in (5.0, 1e-3):
            codes = _assert_bit_identical(alpha, homega, 0, _linspace(0.0, hi, 201), tau, ep_window)[0]
            assert codes[0] == 32
            if hi > 1e-160:
                assert {code >> 4 for code in codes[1:]} == {1}


def test_kernel_crosses_x_350_and_the_cosh_overflow_inside_one_run():
    codes = _assert_bit_identical(5.0, 1.0, 0, _linspace(0.0, 1.99, 4001), 2 / 720.0)[0]
    assert codes[0] == 1 and 15 in codes  # cosh overflows at the head, values come back further on


def test_kernel_keeps_c_v_at_x_exactly_350():
    # x = 0.5 * 4 / tau is exactly 350 at mu = 0, where C_v is a normal double, 4.83e-299.
    tau = 2 / 350
    assert 0.5 * 4.0 / tau == 350.0
    codes, values = _assert_bit_identical(5.0, 1.0, 0, [0.0, 0.0, 1e-3], tau)
    assert codes[0] == 15 and float.fromhex(values[3]) > 0.0


def test_kernel_overflow_is_the_same_value_error():
    for mu in ([1.0, 1e200], [1.0, math.inf], [0.5, 1.0, 1e300]):
        assert _assert_bit_identical(5.0, 1.0, 0, mu, 1.0)[0] is ValueError
    with pytest.raises(ValueError, match="overflows"):
        closed_forms(5.0, 1.0, 0, [1.0, 1e200], 1.0)


@pytest.mark.parametrize("mu", [[-1.0], [-2.0, -1.0, 3.0], [-1e-300, 0.0], [-math.inf, 2.0]])
def test_kernel_refuses_a_negative_coupling(mu):
    # All formulas depend on mu**2, so a negative mu is refused as ModelParams refuses it.
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        closed_forms(5.0, 1.0, 0, mu, 1.0)


def test_kernel_refuses_an_unsorted_grid_or_a_nan():
    # Its runs are found by bisection, which holds only where mu is nondecreasing.
    nan_inside = _linspace(0.0, 4.0, 50)
    nan_inside[30] = math.nan
    for mu in ([1e200, 1.0], [math.nan], [1.0, math.nan, 2.0], nan_inside, [1.0, 3.0, -0.5], [2.0, -math.inf],
               [0.0, 2.0 + 1e-13, 2.0]):
        _assert_refused(5.0, 1.0, 0, mu, 1.0)


def test_kernel_takes_any_iterable_of_couplings():
    grid = _linspace(0.0, 4.0, 41)
    expected = closed_forms(5.0, 1.0, 3, grid, 1.0, 1e-6)
    for mu in (tuple(grid), array("d", grid), iter(grid)):
        assert closed_forms(5.0, 1.0, 3, mu, 1.0, 1e-6) == expected
    assert closed_forms(5.0, 1.0, 3, [], 1.0) == ClosedForms(b"", [])


def _count_phase_tests(monkeypatch):
    calls = []

    def counted_rule(delta, n):
        test = phase_rule(delta, n)

        def counted(mu):
            calls.append(mu)
            return test(mu)

        return counted

    monkeypatch.setattr(thermo, "phase_rule", counted_rule)
    return calls


@pytest.mark.parametrize("lo,hi", [(0.0, 1.9), (0.0, 4.0), (2.1, 40.0), (1.0, 2.0)])
def test_kernel_classifies_a_unit_by_bisection_not_row_by_row(monkeypatch, lo, hi):
    calls = _count_phase_tests(monkeypatch)
    steps = 2001
    codes = closed_forms(5.0, 1.0, 0, _linspace(lo, hi, steps), 1.0, 1e-6).codes
    assert len(codes) == steps
    assert len(calls) <= 4 * math.ceil(math.log2(steps)) + 4


@pytest.mark.parametrize("mu", [0.0, 1.0, 2.0, 3.0])
def test_thermo_point_makes_at_most_three_phase_tests(monkeypatch, mu):
    calls = _count_phase_tests(monkeypatch)
    thermo_point(ModelParams(5.0, 1.0, mu), 0, 1.0)
    assert 1 <= len(calls) <= 3


# (alpha, homega, n) where rounding delta**2 or 4*mu_c**2*(n+1) into the subnormal range moves the
# discriminant by more than 1e-12*delta**2: the band's floor must hold mu_c.  Random draws almost never land here.
SUBNORMAL_ROUNDING = [
    (0.0, 1e-150, 2**53 - 1),  # delta**2 is normal, mu_c**2 ~ 2.8e-317 is not
    (2.9967829359657627e-154, 2.9967830018561974e-154, 0),  # delta**2 ~ 4.3e-323
    (9.999999999982296e-151, 1e-150, 0),  # delta**2 rounds up to one ulp, 5e-324
]


def test_mu_c_is_inside_the_phase_rule_band():
    # closed_forms' run key is monotone because the window around mu_c and
    # phase_rule's tolerance band are one interval: each contains mu_c.
    rng = random.Random(20261019)
    cases = [
        (rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-150, 150), 10 ** rng.uniform(-150, 150),
         rng.choice((0, 1, 3, 10, 100, 10**4, 10**6, 2**53 - 1)))
        for _ in range(2000)
    ]
    for alpha, homega, n in cases + SUBNORMAL_ROUNDING:
        params = ModelParams(alpha, homega, 0.0)
        mu_c = critical_coupling(params, n)
        assert classify(params._replace(mu=mu_c), n) is PhaseRegion.EXCEPTIONAL, (params, n)


@pytest.mark.parametrize("alpha,homega,n", SUBNORMAL_ROUNDING)
@pytest.mark.parametrize("ep_window", [None, 0.0])
def test_kernel_where_the_discriminant_rounds_into_the_subnormal_range(alpha, homega, n, ep_window):
    # Across mu_c, with or without the mask, the runs are the per-row reference's.
    mu_c = critical_coupling(ModelParams(alpha, homega, 0.0), n)
    for lo, hi in ((0.0, 2.0 * mu_c), (mu_c, 2.0 * mu_c), (0.999 * mu_c, 1.001 * mu_c)):
        _assert_bit_identical(alpha, homega, n, _linspace(lo, hi, 41), homega, ep_window)


def test_a_one_ulp_delta_squared_is_exceptional_across_twice_mu_c():
    # delta**2 rounds up to 5e-324 against a true 3.1e-324, and every 4*mu**2 up to 2*mu_c rounds to at
    # most 4 ulps: no sign of the discriminant there is known, so no row gets a phase.
    mu_c = critical_coupling(ModelParams(9.999999999982296e-151, 1e-150, 0.0), 0)
    for ep_window in (None, 0.0):
        codes, values = closed_forms(9.999999999982296e-151, 1e-150, 0, _linspace(mu_c, 2.0 * mu_c, 41), 1e-150,
                                     ep_window)
        assert (codes, values) == (b"\x20" * 41, [])
