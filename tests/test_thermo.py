import math

import mpmath
import numpy as np
import pytest

from spinosc.metric import eta
from spinosc.model import ModelParams, build_block
from spinosc.smallmat import expm2
from spinosc.spectral import ExceptionalPoint, PhaseRegion, block_spectrum, critical_coupling, phase
from spinosc.sweep import SweepSpec
from spinosc.thermo import (
    OBSERVABLE_BITS,
    StencilCrossesSingularity,
    closed_forms,
    entropy,
    finite_diff_check,
    partition_function,
    specific_heat,
    thermo_point,
)

from rowview import sweep_rows

FIG = dict(alpha=5.0, homega=1.0)

# Reference values from 50-digit evaluation of the closed scalar forms.
Z_UNBROKEN = 4.0825143693209264  # mu=1, n=0, tau=1
F_UNBROKEN = -1.406713065591972
S_UNBROKEN = 0.27980151905444562
C_UNBROKEN = 0.35315881974287412
Z_HERMITIAN = 4.5637740689619636  # mu=0, n=0, tau=1
F_HERMITIAN = -1.5181499279178097
S_HERMITIAN = 0.090094767766175972
C_HERMITIAN = 0.28260329941265786
Z_BROKEN = 1.8994662134785406  # mu=2.5, n=0, tau=2
F_BROKEN = -1.2831458128536614
S_BROKEN = 1.590270251384885
C_BROKEN = -1.0506779798514344
Z_NEGATIVE = -1.0046070032242086  # mu=3, n=0, tau=1


def _free_energy(params, n, tau):
    """F = -tau ln Z from the matrix-route Z; None where Z <= 0."""
    z = partition_function(params, n, tau)
    return -tau * math.log(z) if z > 0.0 else None


def _gibbs_entropy(energies, tau):
    weights = [math.exp(-e / tau) for e in energies]
    z = sum(weights)
    return -sum((w / z) * math.log(w / z) for w in weights)


@pytest.mark.parametrize(
    "mu,n,tau,expected",
    [
        (0.0, 0, 1.0, Z_HERMITIAN),
        (1.0, 0, 1.0, Z_UNBROKEN),
        (2.5, 0, 2.0, Z_BROKEN),
        (3.0, 0, 1.0, Z_NEGATIVE),
    ],
)
def test_partition_function_reference_values(mu, n, tau, expected):
    params = ModelParams(**FIG, mu=mu)
    assert partition_function(params, n, tau) == pytest.approx(expected, rel=1e-12)
    assert thermo_point(params, n, tau).z == pytest.approx(expected, rel=1e-12)


def test_partition_function_refuses_coalescence():
    with pytest.raises(ExceptionalPoint):
        partition_function(ModelParams(5, 1, 2), 0, 1.0)


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_temperature_validation(tau):
    with pytest.raises(ValueError):
        partition_function(ModelParams(5, 1, 1), 0, tau)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("factor", [0.3, 0.7, 1.2, 1.8])
@pytest.mark.parametrize("tau", [0.2, 1.0, 8.0, 50.0])
def test_matrix_and_closed_routes_agree(n, factor, tau):
    mu_c = critical_coupling(ModelParams(**FIG, mu=0.0), n)
    params = ModelParams(**FIG, mu=factor * mu_c)
    z_closed = thermo_point(params, n, tau).z
    if abs(z_closed) < 1e-8:
        return
    z_matrix = partition_function(params, n, tau)
    assert abs(z_matrix - z_closed) <= 1e-10 * abs(z_closed)


@pytest.mark.parametrize("mu,n,tau", [(1.0, 0, 1.0), (2.5, 0, 2.0), (0.5, 4, 0.7), (3.0, 0, 1.0)])
def test_raw_trace_is_real(mu, n, tau):
    params = ModelParams(**FIG, mu=mu)
    raw = complex(np.trace(expm2(build_block(params, n), -1.0 / tau) @ eta(params, n).matrix))
    assert abs(raw.imag) <= 1e-10 * abs(raw)


def test_hermitian_limit_equals_two_level_sum():
    z = partition_function(ModelParams(5, 1, 0), 0, 1.0)
    spectrum = block_spectrum(ModelParams(5, 1, 0), 0)
    direct = math.exp(-spectrum.e_plus.real) + math.exp(-spectrum.e_minus.real)
    assert z == pytest.approx(direct, rel=1e-12)


def test_free_energy_values_and_undefined_branch():
    assert _free_energy(ModelParams(**FIG, mu=0.0), 0, 1.0) == pytest.approx(F_HERMITIAN, rel=1e-12)
    assert _free_energy(ModelParams(**FIG, mu=1.0), 0, 1.0) == pytest.approx(F_UNBROKEN, rel=1e-12)
    assert _free_energy(ModelParams(**FIG, mu=3.0), 0, 1.0) is None


def test_entropy_reference_values():
    assert entropy(ModelParams(**FIG, mu=0.0), 0, 1.0) == pytest.approx(S_HERMITIAN, abs=1e-12)
    assert entropy(ModelParams(**FIG, mu=1.0), 0, 1.0) == pytest.approx(S_UNBROKEN, abs=1e-12)
    assert entropy(ModelParams(**FIG, mu=2.5), 0, 2.0) == pytest.approx(S_BROKEN, abs=1e-12)
    assert entropy(ModelParams(**FIG, mu=3.0), 0, 1.0) is None


@pytest.mark.parametrize("tau", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("n", [0, 1])
def test_entropy_matches_gibbs_form_at_zero_coupling(tau, n):
    params = ModelParams(**FIG, mu=0.0)
    spectrum = block_spectrum(params, n)
    expected = _gibbs_entropy([spectrum.e_plus.real, spectrum.e_minus.real], tau)
    assert entropy(params, n, tau) == pytest.approx(expected, abs=1e-9)


def test_specific_heat_reference_values():
    assert specific_heat(ModelParams(**FIG, mu=0.0), 0, 1.0) == pytest.approx(C_HERMITIAN, abs=1e-12)
    assert specific_heat(ModelParams(**FIG, mu=1.0), 0, 1.0) == pytest.approx(C_UNBROKEN, abs=1e-12)
    assert specific_heat(ModelParams(**FIG, mu=2.5), 0, 2.0) == pytest.approx(C_BROKEN, abs=1e-12)
    with pytest.raises(ExceptionalPoint):
        specific_heat(ModelParams(**FIG, mu=2.0), 0, 1.0)


@pytest.mark.parametrize("n", [0, 2, 5])
@pytest.mark.parametrize("factor,sign", [(0.4, 1.0), (0.85, 1.0), (1.15, -1.0), (2.0, -1.0)])
def test_specific_heat_sign_structure(n, factor, sign):
    mu_c = critical_coupling(ModelParams(**FIG, mu=0.0), n)
    params = ModelParams(**FIG, mu=factor * mu_c)
    for tau in (0.5, 2.0, 10.0):
        assert sign * specific_heat(params, n, tau) >= 0.0


def test_specific_heat_vanishes_in_both_temperature_limits():
    params = ModelParams(**FIG, mu=1.0)
    assert specific_heat(params, 0, 1e-3) < 1e-6
    assert specific_heat(params, 0, 1e6) < 1e-6


def test_specific_heat_vanishes_approaching_coalescence():
    mu_c = critical_coupling(ModelParams(**FIG, mu=0.0), 0)
    for gap in (1e-3, 1e-5):
        for mu in (mu_c - gap, mu_c + gap):
            assert abs(specific_heat(ModelParams(**FIG, mu=mu), 0, 5.0)) < 1e-2


def test_thermo_point_unbroken_bundle():
    point = thermo_point(ModelParams(**FIG, mu=1.0), 0, 1.0)
    assert point.region is PhaseRegion.UNBROKEN
    assert point.z == pytest.approx(Z_UNBROKEN, rel=1e-12)
    assert point.free_energy == pytest.approx(F_UNBROKEN, rel=1e-12)
    assert point.entropy == pytest.approx(S_UNBROKEN, abs=1e-12)
    assert point.specific_heat == pytest.approx(C_UNBROKEN, abs=1e-12)
    assert point.z_positive


def test_thermo_point_broken_bundle():
    point = thermo_point(ModelParams(**FIG, mu=2.5), 0, 2.0)
    assert point.region is PhaseRegion.BROKEN
    assert point.z == pytest.approx(Z_BROKEN, rel=1e-12)
    assert point.free_energy == pytest.approx(F_BROKEN, rel=1e-12)
    assert point.entropy == pytest.approx(S_BROKEN, abs=1e-12)
    assert point.specific_heat == pytest.approx(C_BROKEN, abs=1e-12)


def test_thermo_point_at_coalescence_is_undefined():
    point = thermo_point(ModelParams(**FIG, mu=2.0), 0, 1.0)
    assert point.region is PhaseRegion.EXCEPTIONAL
    assert point.z is None
    assert point.free_energy is None
    assert point.entropy is None
    assert point.specific_heat is None
    assert not point.z_positive


def test_thermo_point_negative_z_flags():
    point = thermo_point(ModelParams(**FIG, mu=3.0), 0, 1.0)
    assert point.region is PhaseRegion.BROKEN
    assert point.z == pytest.approx(Z_NEGATIVE, rel=1e-12)
    assert not point.z_positive
    assert point.free_energy is None
    assert point.entropy is None
    assert point.specific_heat is not None


@pytest.mark.parametrize("mu,n,tau", [(1.0, 0, 1.0), (0.0, 0, 1.0), (2.5, 0, 2.0), (0.6, 3, 1.4)])
def test_finite_difference_agreement(mu, n, tau):
    report = finite_diff_check(ModelParams(**FIG, mu=mu), n, tau)
    assert report.rel_err_d1 < 1e-6
    assert report.rel_err_d2 < 1e-6


def test_finite_difference_stencil_crossing():
    # bt = 3/2 at mu=2.5, n=0; tau just below 1.5/(pi/2) puts cos past its zero.
    with pytest.raises(StencilCrossesSingularity):
        finite_diff_check(ModelParams(**FIG, mu=2.5), 0, 0.954)


def test_finite_difference_underflowed_z_is_an_overflow_error():
    # At n = 3000, tau = 0.01 the damping exp(-center/tau) takes every stencil
    # Z below the smallest double: Z is positive but out of range, not a sign
    # change.  numpy's warnings from the matrix-route stencil are silenced.
    mu = 0.5 * critical_coupling(ModelParams(**FIG, mu=0.0), 3000)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError) as info:
        finite_diff_check(ModelParams(**FIG, mu=mu), 3000, 0.01)
    assert str(info.value) == "partition function underflows to 0 on the stencil around tau = 0.01"


@pytest.mark.parametrize("tau", [5e-324, 1e-320, 1.7976931348623157e308])
def test_finite_difference_stencil_outside_double_range_is_an_arithmetic_error(tau):
    # The step 1e-4 * tau underflows to 0 at a subnormal tau, and tau + step
    # overflows at the largest double: the check names the stencil instead of
    # dividing by zero or handing the matrix route an infinite tau.
    with pytest.raises(ArithmeticError) as info:
        finite_diff_check(ModelParams(**FIG, mu=1.0), 0, tau)
    assert str(info.value) == f"the stencil tau +- 1e-4 tau around tau = {tau} leaves double range"


@pytest.mark.parametrize("alpha", [-5.0, 7.0])
def test_kernel_matches_mpmath_where_the_fixed_step_stencil_is_off(alpha):
    # At n = 2, mu = 0.6 mu_c, tau = 1.5 the stencil with step 1e-4 tau puts
    # d2 2.0e-5 off, while the kernel's F, S and C_v agree with 50-digit
    # mpmath: the oracle's step, not the kernel, is at fault there.
    n, tau = 2, 1.5
    mu = 0.6 * critical_coupling(ModelParams(alpha, 1.0, 0.0), n)
    point = thermo_point(ModelParams(alpha, 1.0, mu), n, tau)
    with mpmath.workdps(50):
        delta, t = 1 - mpmath.mpf(alpha), mpmath.mpf(tau)
        d = mpmath.sqrt(delta**2 - 4 * mpmath.mpf(mu) ** 2 * (n + 1))

        def log_z(t):
            return mpmath.log(2 * abs(delta) / d) - (2 * n + 1) / (2 * t) + mpmath.log(mpmath.cosh(d / (2 * t)))

        d1, d2 = mpmath.diff(log_z, t), mpmath.diff(log_z, t, 2)
        exact = (-t * log_z(t), log_z(t) + t * d1, 2 * t * d1 + t * t * d2)
        for value, reference in zip((point.free_energy, point.entropy, point.specific_heat), exact):
            assert abs(value - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize("field", ["entropy", "specific_heat"])
def test_finite_difference_checks_the_kernels_s_and_cv(monkeypatch, field):
    # The analytic side of the check is the production kernel, so an error of
    # 1e-5 in its S or C_v must show above the 1e-6 bound.
    kernel = closed_forms
    bit = OBSERVABLE_BITS[("z", "free_energy", "entropy", "specific_heat").index(field)]

    def skewed(*args, **kwargs):
        codes, values = kernel(*args, **kwargs)
        defined = [b for b in OBSERVABLE_BITS if codes[0] & b]
        values[defined.index(bit)] *= 1.0 + 1e-5
        return codes, values

    monkeypatch.setattr("spinosc.thermo.closed_forms", skewed)
    worst = 0.0
    for mu, n, tau in [(1.0, 0, 1.0), (0.0, 0, 1.0), (2.5, 0, 2.0), (0.6, 3, 1.4)]:
        report = finite_diff_check(ModelParams(**FIG, mu=mu), n, tau)
        worst = max(worst, report.rel_err_d1, report.rel_err_d2)
    assert worst > 1e-6


def test_finite_difference_where_the_kernel_overflows_is_an_overflow_error():
    # b/tau ~ 2165 at alpha = 5000, n = 0, mu = mu_c/2, tau = 1: Z leaves double
    # range, so the kernel's F and S are undefined.  The matrix route overflows
    # on the stencil first, and expm2 says so.
    mu_c = critical_coupling(ModelParams(5000.0, 1.0, 0.0), 0)
    with pytest.raises(OverflowError) as info:
        finite_diff_check(ModelParams(5000.0, 1.0, 0.5 * mu_c), 0, 1.0)
    assert str(info.value) == "exp(-1.000100010001 * m) leaves double range"


def test_finite_difference_with_a_step_whose_square_leaves_double_range_names_the_stencil():
    # step**2 = 1e608 overflows; the second difference divides by the step
    # twice, so the check reaches the kernel and names the point.  There the
    # stencil's matrix Z is ~14, but F = -tau ln Z leaves double range.
    with pytest.raises(OverflowError) as info:
        finite_diff_check(ModelParams(5.0, 1.0, 1.98), 0, 1e308)
    assert str(info.value) == "F, S or C_v is undefined at mu = 1.98, n = 0, tau = 1e+308"


def test_free_energy_tracks_log_z():
    params = ModelParams(**FIG, mu=1.0)
    taus = np.linspace(0.5, 5.0, 20)
    values = [_free_energy(params, 0, t) for t in taus]
    assert all(v is not None for v in values)
    # -F/tau = ln Z must increase with Z along the tau grid.
    logz = [-v / t for v, t in zip(values, taus)]
    zs = [partition_function(params, 0, t) for t in taus]
    assert np.all(np.diff(logz) * np.diff(zs) >= 0.0)


def _envelope(params, n, tau):
    # prefactor * exp(-center/tau): the size of Z's terms before cos(bt/tau)
    # can nearly cancel them in the broken region.
    disc = phase(params, n)[1]
    center = 0.5 * (2 * n + 1) * params.homega
    if disc > 0.0:
        prefactor = 2.0 * abs(params.delta) / math.sqrt(disc)
    else:
        prefactor = 4.0 * params.mu * math.sqrt(n + 1.0) / math.sqrt(-disc)
    return prefactor * math.exp(-center / tau)


@pytest.mark.parametrize("tau", [5.0, 1.0])
def test_figure_rows_match_the_matrix_trace(tau):
    # The default figure grid at this tau.
    spec = SweepSpec(**FIG, tau=tau, subspaces=(0, 1, 2, 5), mu_min=0.0, mu_max=4.0, steps=161)
    rows = [r for r in sweep_rows(spec) if r.region is not PhaseRegion.EXCEPTIONAL]
    if tau == 1.0:
        assert any(r.z < 0.0 for r in rows)
    for row in rows:
        params = ModelParams(**FIG, mu=row.mu)
        z_matrix = partition_function(params, row.n, tau)
        scale = max(abs(z_matrix), _envelope(params, row.n, tau))
        assert abs(row.z - z_matrix) <= 1e-10 * scale
        f_matrix = _free_energy(params, row.n, tau)
        assert (row.free_energy is None) == (f_matrix is None)
        if f_matrix is not None:
            # 1e-10 * scale on Z carried through F = -tau ln Z.
            assert abs(row.free_energy - f_matrix) <= 1e-10 * tau * scale / z_matrix


def test_thermo_point_never_builds_a_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix route called on the production path")

    # thermo imports eta and expm2 inside the oracle functions that use them, which read
    # them from their defining modules at each call: patching those modules catches every route.
    for target in ("spinosc.metric.eta", "spinosc.smallmat.expm2", "spinosc.thermo.build_block"):
        monkeypatch.setattr(target, refuse)
    cases = [
        (1.0, 1.0, PhaseRegion.UNBROKEN, Z_UNBROKEN),
        (2.5, 2.0, PhaseRegion.BROKEN, Z_BROKEN),
        (3.0, 1.0, PhaseRegion.BROKEN, Z_NEGATIVE),
    ]
    for mu, tau, region, z in cases:
        point = thermo_point(ModelParams(**FIG, mu=mu), 0, tau)
        assert point.region is region
        assert point.z == pytest.approx(z, rel=1e-12)
        assert point.z_positive == (z > 0.0)


@pytest.mark.parametrize("tau", [1e-3, 1e-4])
def test_overflowing_cosh_leaves_z_f_s_undefined(tau):
    params = ModelParams(**FIG, mu=1.0)
    point = thermo_point(params, 0, tau)
    assert point.region is PhaseRegion.UNBROKEN
    assert (point.z, point.free_energy, point.entropy, point.specific_heat) == (None, None, None, 0.0)
    assert not point.z_positive
    assert entropy(params, 0, tau) is None
    assert specific_heat(params, 0, tau) == 0.0
