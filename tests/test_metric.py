import numpy as np
import pytest

from spinosc import metric
from spinosc.metric import (
    eta,
    eta_from_vectors,
    verify_metric,
)
from spinosc.model import ModelParams, build_block
from spinosc.smallmat import DefectiveMatrix
from spinosc.spectral import ExceptionalPoint, PhaseRegion, critical_coupling

FIG = dict(alpha=5.0, homega=1.0)

ETA_N0_MU1 = np.array(
    [[1.1547005383792515, 0.57735026918962576], [0.57735026918962576, 1.1547005383792515]]
)
ETA_N0_MU3 = np.array(
    [[1.3416407864998738, 0.89442719099991586], [0.89442719099991586, 1.3416407864998738]]
)


def test_left_projector_sum_reference_broken_point():
    assert np.allclose(eta_from_vectors(ModelParams(5, 1, 3), 0), ETA_N0_MU3, rtol=0, atol=1e-12)


def test_left_projector_sum_refuses_a_pair_whose_overlap_vanishes(monkeypatch):
    # A left vector orthogonal to its right vector has no biorthonormal scale.
    real = metric.eig2

    def orthogonal_pairs(m):
        return tuple(
            p._replace(left_vector=(-p.right_vector[1].conjugate(), p.right_vector[0].conjugate())) for p in real(m)
        )

    monkeypatch.setattr(metric, "eig2", orthogonal_pairs)
    with pytest.raises(DefectiveMatrix, match="left/right overlap vanishes") as info:
        eta_from_vectors(ModelParams(5, 1, 1), 0)
    assert info.value.eigenvalues == tuple(p.value for p in real(metric._traceless_block(ModelParams(5, 1, 1), 0)))


def test_eta_reference_unbroken():
    result = eta(ModelParams(5, 1, 1), 0)
    assert result.region is PhaseRegion.UNBROKEN
    assert np.allclose(result.matrix, ETA_N0_MU1, rtol=0, atol=1e-12)


def test_eta_reference_unbroken_second_subspace():
    result = eta(ModelParams(5, 1, 1), 1)
    expected = np.array([[np.sqrt(2), 1.0], [1.0, np.sqrt(2)]])
    assert np.allclose(result.matrix, expected, rtol=0, atol=1e-12)


def test_eta_reference_broken():
    result = eta(ModelParams(5, 1, 3), 0)
    assert result.region is PhaseRegion.BROKEN
    assert np.allclose(result.matrix, ETA_N0_MU3, rtol=0, atol=1e-12)


def test_eta_identity_in_hermitian_limit():
    # alpha = 0.5 puts homega above alpha, where the off-diagonals come out -0.0.
    for alpha in (5, 0.5):
        result = eta(ModelParams(alpha, 1, 0), 7)
        assert np.array_equal(result.matrix, np.eye(2))
        assert result.region is PhaseRegion.UNBROKEN


def test_eta_refuses_coalescence_point():
    with pytest.raises(ExceptionalPoint):
        eta(ModelParams(5, 1, 2), 0)
    with pytest.raises(ExceptionalPoint):
        eta_from_vectors(ModelParams(5, 1, 2), 0)


# The last two sit near resonance, |homega - alpha| << homega.
@pytest.mark.parametrize("alpha", [5.0, -3.0, 0.5, 0.0, 1.00003, 1.0000001])
@pytest.mark.parametrize("n", [0, 3, 8])
def test_eta_routes_agree_both_regions(alpha, n):
    mu_c = critical_coupling(ModelParams(alpha, 1.0, 0.0), n)
    if mu_c == 0.0:
        return
    for factor in (0.1, 0.5, 0.9, 1.1, 1.6, 2.7):
        params = ModelParams(alpha, 1.0, factor * mu_c)
        closed = eta(params, n).matrix
        vectors = np.array(eta_from_vectors(params, n))
        assert np.max(np.abs(vectors - closed)) <= 1e-10
        assert np.max(np.abs(vectors.imag)) <= 1e-12


@pytest.mark.parametrize("mu,n", [(0.4, 0), (1.9, 0), (2.1, 0), (3.0, 0), (0.5, 4), (1.0, 6)])
def test_eta_is_symmetric_unit_determinant_positive(mu, n):
    result = eta(ModelParams(**FIG, mu=mu), n)
    g = np.array(result.matrix)
    assert np.max(np.abs(g - g.T)) < 1e-12
    assert abs(np.linalg.det(g) - 1.0) < 1e-10
    eigenvalues = np.linalg.eigvalsh(g)
    assert np.all(eigenvalues > 0.0)


@pytest.mark.parametrize("alpha", [5.0, -3.0, 0.5])
@pytest.mark.parametrize("n", [0, 2, 5])
def test_unbroken_intertwining(alpha, n):
    mu_c = critical_coupling(ModelParams(alpha, 1.0, 0.0), n)
    for factor in (0.0, 0.3, 0.7, 0.95):
        params = ModelParams(alpha, 1.0, factor * mu_c)
        diag = verify_metric(params, n)
        h_norm = np.linalg.norm(build_block(params, n))
        assert diag.intertwining_residual < 1e-10 * h_norm
        assert diag.det_error < 1e-10
        assert diag.positive_definite


def test_broken_intertwining_residual_documented_value():
    diag = verify_metric(ModelParams(5, 1, 3), 0)
    assert diag.intertwining_residual == pytest.approx(6.3245553203367587, abs=1e-9)


def test_verify_metric_hermitian_limit_all_clean():
    diag = verify_metric(ModelParams(5, 1, 0), 0)
    assert diag.det_error == 0.0
    assert diag.intertwining_residual == 0.0
    assert diag.positive_definite


def test_verify_metric_refuses_coalescence():
    with pytest.raises(ExceptionalPoint):
        verify_metric(ModelParams(5, 1, 2), 0)


@pytest.mark.parametrize("n", [0, 2])
def test_metric_norm_divergence_exponent(n):
    # Entries scale like (mu_c - mu)**-1/2 approaching the coalescence point.
    mu_c = critical_coupling(ModelParams(**FIG, mu=0.0), n)
    gaps = np.logspace(np.log10(0.001 * mu_c), np.log10(0.1 * mu_c), 25)
    norms = [
        np.linalg.norm(eta(ModelParams(**FIG, mu=mu_c - gap), n).matrix) for gap in gaps
    ]
    slope = np.polyfit(np.log(gaps), np.log(norms), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)
