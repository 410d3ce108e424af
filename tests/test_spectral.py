import math
import subprocess
import sys

import numpy as np
import pytest

from spinosc.model import ModelParams, build_block
from spinosc.smallmat import DefectiveMatrix, eig2
from spinosc.spectral import (
    NoSignChange,
    PhaseRegion,
    block_spectrum,
    classify,
    critical_coupling,
    locate_ep_numeric,
    phase,
)

FIG = dict(alpha=5.0, homega=1.0)


def test_spectrum_decoupled_limit():
    s = block_spectrum(ModelParams(5, 1, 0), 0)
    assert s.region is PhaseRegion.UNBROKEN
    assert s.e_plus == pytest.approx(2.5, abs=1e-15)
    assert s.e_minus == pytest.approx(-1.5, abs=1e-15)


def test_spectrum_coalesces_at_critical_coupling():
    s = block_spectrum(ModelParams(5, 1, 2), 0)
    assert s.region is PhaseRegion.EXCEPTIONAL
    assert s.e_plus == s.e_minus == pytest.approx(0.5, abs=1e-15)


def test_spectrum_broken_conjugate_pair():
    s = block_spectrum(ModelParams(5, 1, 3), 0)
    assert s.region is PhaseRegion.BROKEN
    assert s.e_plus == pytest.approx(0.5 + 2.2360679774997897j, abs=1e-14)
    assert s.e_minus == pytest.approx(0.5 - 2.2360679774997897j, abs=1e-14)
    assert s.discriminant == pytest.approx(-20.0, abs=1e-12)


@pytest.mark.parametrize(
    "mu,expected",
    [(1.9, PhaseRegion.UNBROKEN), (2.1, PhaseRegion.BROKEN), (2.0, PhaseRegion.EXCEPTIONAL)],
)
def test_classify_around_first_coalescence(mu, expected):
    assert classify(ModelParams(5, 1, mu), 0) is expected


def test_classify_zero_detuning_is_broken_for_any_positive_coupling():
    assert classify(ModelParams(1, 1, 0.3), 2) is PhaseRegion.BROKEN


@pytest.mark.parametrize(
    "n,expected",
    [(0, 2.0), (1, 1.414213562373095), (2, 1.1547005383792515), (5, 0.81649658092772603)],
)
def test_critical_coupling_values(n, expected):
    assert critical_coupling(ModelParams(5, 1, 0), n) == pytest.approx(expected, abs=1e-15)


def test_critical_coupling_vanishes_at_zero_detuning():
    assert critical_coupling(ModelParams(1, 1, 0), 3) == 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_locate_ep_agrees_with_closed_form(n):
    expected = critical_coupling(ModelParams(**FIG, mu=0), n)
    located = locate_ep_numeric(5.0, 1.0, n, (0.0, 5.0))
    assert abs(located - expected) < 1e-10


def test_locate_ep_stops_when_the_ends_are_adjacent_doubles():
    # Near mu_c ~ 5e9 (alpha = 1e10) doubles are ~1e-6 apart, far wider than
    # the 1e-12 bracket width, so only the adjacent-ends stop can end the
    # bisection.  It runs in a child so that a hang fails here instead.
    code = (
        "from spinosc.model import ModelParams\n"
        "from spinosc.spectral import critical_coupling, locate_ep_numeric\n"
        "for n in range(6):\n"
        "    mu_c = critical_coupling(ModelParams(1e10, 1.0, 0.0), n)\n"
        "    print(repr(mu_c), repr(locate_ep_numeric(1e10, 1.0, n, (0.0, mu_c + 1.0))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6
    for line in lines:
        mu_c, located = map(float, line.split())
        assert abs(located - mu_c) <= 2 * math.ulp(mu_c)


def test_locate_ep_no_sign_change():
    with pytest.raises(NoSignChange):
        locate_ep_numeric(5.0, 1.0, 0, (3.0, 4.0))


def test_locate_ep_rejects_bad_bracket():
    with pytest.raises(ValueError):
        locate_ep_numeric(5.0, 1.0, 0, (2.0, 1.0))


@pytest.mark.parametrize("mu", [0.0, 0.7, 1.3, 2.4, 3.1])
@pytest.mark.parametrize("n", range(6))
def test_spectrum_matches_eig2(mu, n):
    params = ModelParams(**FIG, mu=mu)
    s = block_spectrum(params, n)
    try:
        pairs = eig2(build_block(params, n))
    except DefectiveMatrix as exc:
        got = list(exc.eigenvalues)
    else:
        got = [p.value for p in pairs]
    # Nearest matching: conjugate pairs defeat lexicographic sorting when the
    # real parts differ by one ulp.
    remaining = [s.e_plus, s.e_minus]
    scale = max(1.0, abs(s.e_plus), abs(s.e_minus))
    for value in got:
        best = min(range(len(remaining)), key=lambda i: abs(value - remaining[i]))
        assert abs(value - remaining.pop(best)) <= 1e-12 * scale


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 1.99, 2.01, 3.0])
@pytest.mark.parametrize("n", range(4))
def test_region_consistent_with_discriminant_and_mu_c(mu, n):
    params = ModelParams(**FIG, mu=mu)
    s = block_spectrum(params, n)
    region = classify(params, n)
    assert s.region is region
    mu_c = critical_coupling(params, n)
    if region is PhaseRegion.UNBROKEN:
        assert s.discriminant > 0 and mu < mu_c
    elif region is PhaseRegion.BROKEN:
        assert s.discriminant < 0 and mu > mu_c


@pytest.mark.parametrize("mu,n", [(2.5, 0), (3.0, 0), (1.5, 1), (0.9, 5)])
def test_broken_imaginary_parts(mu, n):
    params = ModelParams(**FIG, mu=mu)
    s = block_spectrum(params, n)
    assert s.region is PhaseRegion.BROKEN
    expected = 0.5 * np.sqrt(4 * mu**2 * (n + 1) - params.delta**2)
    assert abs(s.e_plus.imag) == pytest.approx(expected, rel=1e-12)
    assert s.e_plus.imag >= 0.0
    assert s.e_plus == s.e_minus.conjugate()


@pytest.mark.parametrize("mu", [0.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", range(5))
def test_eigenvalue_sum_is_block_trace(mu, n):
    s = block_spectrum(ModelParams(**FIG, mu=mu), n)
    total = (s.e_plus + s.e_minus).real
    assert total == pytest.approx((2 * n + 1) * 1.0, rel=1e-12)


def test_discriminant_formula():
    assert phase(ModelParams(5, 1, 1), 3)[1] == pytest.approx(16.0 - 16.0, abs=1e-15)
    assert phase(ModelParams(5, 1, 2), 0)[1] == 0.0
