import math

import numpy as np
import pytest

from spinosc.fullspace import assemble_full
from spinosc.model import ModelParams, build_block, sigma_z_residual

FIG = dict(alpha=5.0, homega=1.0)


def test_build_block_decoupled_limit():
    block = build_block(ModelParams(5, 1, 0), 0)
    assert np.allclose(block, [[2.5, 0.0], [0.0, -1.5]], rtol=0, atol=1e-15)


def test_build_block_reference_point():
    block = build_block(ModelParams(5, 1, 1), 0)
    assert np.allclose(block, [[2.5, 1.0], [-1.0, -1.5]], rtol=0, atol=1e-15)


def test_build_block_higher_subspace_matches_fullspace_rows():
    # n = 3 block lives on basis indices (2*3, 2*4 + 1) of the assembled matrix.
    block = build_block(ModelParams(5, 1, 1), 3)
    assert np.allclose(block, [[5.5, 2.0], [-2.0, 1.5]], rtol=0, atol=1e-15)
    h = assemble_full(ModelParams(5, 1, 1), 5)
    embedded = [[h[i, j] for j in (6, 9)] for i in (6, 9)]
    assert np.allclose(block, embedded, rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [dict(homega=0.0), dict(homega=-1.0), dict(mu=-0.5)])
def test_params_validation(bad):
    kwargs = dict(alpha=5.0, homega=1.0, mu=0.0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_params_rejects_non_finite():
    with pytest.raises(ValueError):
        ModelParams(float("nan"), 1.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(5.0, float("inf"), 0.0)


def test_params_are_a_named_tuple_of_floats():
    params = ModelParams(5, 1, mu=1)
    assert params == (5.0, 1.0, 1.0)
    alpha, homega, mu = params
    assert (type(alpha), type(homega), type(mu)) == (float, float, float)
    assert repr(params) == "ModelParams(alpha=5.0, homega=1.0, mu=1.0)"


def test_params_store_zero_for_a_negative_zero():
    params = ModelParams(-0.0, 1.0, -0.0)
    assert [math.copysign(1.0, value) for value in params] == [1.0, 1.0, 1.0]
    assert repr(params) == repr(ModelParams(0, 1, 0)) == "ModelParams(alpha=0.0, homega=1.0, mu=0.0)"


def test_replace_and_make_check_like_the_constructor():
    params = ModelParams(5, 1, 1)
    with pytest.raises(ValueError, match=r"^mu must be nonnegative, got -1.0$"):
        params._replace(mu=-1.0)
    with pytest.raises(ValueError, match=r"^homega must be finite, got nan$"):
        ModelParams._make([5.0, float("nan"), 1.0])
    replaced = params._replace(mu=2)
    assert type(replaced) is ModelParams and replaced == (5.0, 1.0, 2.0) and type(replaced.mu) is float
    assert ModelParams._make(iter([5, 1, 1])) == params


def test_delta_is_exact_difference():
    params = ModelParams(5.0, 1.0, 0.3)
    assert params.delta == 1.0 - 5.0


@pytest.mark.parametrize("n", [-1, 1.5, "2", True])
def test_subspace_index_validation(n):
    with pytest.raises(ValueError):
        build_block(ModelParams(5, 1, 1), n)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_trace_and_offdiagonal_structure(mu, n):
    params = ModelParams(**FIG, mu=mu)
    block = build_block(params, n)
    assert (block[0][0] + block[1][1]).real == pytest.approx((2 * n + 1) * params.homega, rel=1e-15)
    coupling = mu * np.sqrt(n + 1.0)
    assert block[0][1] == pytest.approx(coupling, rel=1e-15)
    assert block[1][0] == pytest.approx(-coupling, rel=1e-15)


@pytest.mark.parametrize("alpha", [-3.0, 0.0, 1.0, 5.0])
@pytest.mark.parametrize("mu", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("n", [0, 2, 5])
def test_sigma_z_residual_vanishes(alpha, mu, n):
    params = ModelParams(alpha, 1.0, mu)
    h_norm = np.linalg.norm(build_block(params, n))
    assert sigma_z_residual(params, n) < 1e-12 * (1.0 + h_norm)


def test_sigma_z_residual_exact_in_hermitian_limit():
    assert sigma_z_residual(ModelParams(5, 1, 0), 3) == 0.0


@pytest.mark.parametrize("alpha", [5.0, 41.0, 0.5, 1e10, -5.0])
@pytest.mark.parametrize("n", [0, 5, 2**53 - 1])
def test_sigma_z_residual_has_the_bits_of_the_dense_product(alpha, n):
    sz = np.diag([1.0, -1.0])
    for mu in (0.0, 0.3, 1.0, 2.5, 1e5):
        params = ModelParams(alpha, 1.0, mu)
        h = np.array(build_block(params, n))
        assert sigma_z_residual(params, n).hex() == float(np.linalg.norm(sz @ h @ sz - h.conj().T)).hex()


def test_mu_zero_block_is_hermitian():
    block = np.array(build_block(ModelParams(5, 1, 0), 4))
    assert np.array_equal(block, block.conj().T)
