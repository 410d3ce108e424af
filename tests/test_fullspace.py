import numpy as np
import pytest

from spinosc.fullspace import assemble_full, block_decomposition_check, symmetry_report
from spinosc.model import ModelParams

FIG = dict(alpha=5.0, homega=1.0)


def _grading(index: int) -> float:
    # (-1)^n * (2 m_s) for basis index 2n + (0 up / 1 down)
    n, spin = divmod(index, 2)
    return (-1.0) ** n * (1.0 if spin == 0 else -1.0)


def test_space_validation_and_dim():
    assert assemble_full(ModelParams(5, 1, 1), 4).shape == (10, 10)
    with pytest.raises(ValueError, match="cutoff must be >= 1, got 0"):
        assemble_full(ModelParams(5, 1, 1), 0)
    for cutoff in (2.5, True):
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            assemble_full(ModelParams(5, 1, 1), cutoff)


def test_assemble_diagonal_limit():
    h = assemble_full(ModelParams(5, 1, 0), 2)
    expected = np.diag([2.5, -2.5, 3.5, -1.5, 4.5, -0.5])
    assert np.allclose(h, expected, rtol=0, atol=1e-15)


def test_assemble_embeds_first_block():
    h = assemble_full(ModelParams(5, 1, 1), 3)
    # (|0,+>, |1,->) live at indices (0, 3).
    sub = h[np.ix_([0, 3], [0, 3])]
    assert np.allclose(sub, [[2.5, 1.0], [-1.0, -1.5]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("mu", [0.0, 1.0, 3.0])
def test_ground_state_row_is_decoupled(mu):
    h = assemble_full(ModelParams(**FIG, mu=mu), 4)
    row = h[1, :].copy()  # |0,->
    col = h[:, 1].copy()
    row[1] = col[1] = 0.0
    assert np.max(np.abs(row)) == 0.0
    assert np.max(np.abs(col)) == 0.0
    assert h[1, 1] == pytest.approx(-2.5, abs=1e-15)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_grading_structure(mu):
    # No matrix element connects states with different parity-times-spin grading.
    h = assemble_full(ModelParams(**FIG, mu=mu), 5)
    for i in range(h.shape[0]):
        for j in range(h.shape[0]):
            if _grading(i) != _grading(j):
                assert h[i, j] == 0.0


@pytest.mark.parametrize("mu", [0.0, 1.0, 3.0])
def test_ground_state_present(mu):
    check = block_decomposition_check(ModelParams(**FIG, mu=mu), 6)
    assert min(abs(check.computed - (-2.5))) < 1e-8


def test_block_decomposition_contains_first_block_values():
    check = block_decomposition_check(ModelParams(5, 1, 1), 6)
    for target in (-2.5, 0.5 + np.sqrt(3), 0.5 - np.sqrt(3)):
        assert min(abs(check.computed - target)) < 1e-8


def test_block_decomposition_multiset_equality_off_coalescence():
    for mu in (0.0, 0.6, 1.3, 3.0):
        check = block_decomposition_check(ModelParams(**FIG, mu=mu), 8)
        assert check.max_deviation < 1e-8, f"mu={mu}: max deviation {check.max_deviation}"


def test_block_decomposition_hermitian_limit_exact_levels():
    check = block_decomposition_check(ModelParams(5, 1, 0), 4)
    expected = sorted([-2.5, 2.5, -1.5, 3.5, -0.5, 4.5, 0.5, 5.5, 1.5])
    # cutoff 4 keeps the ground state, blocks n=0..3, and excludes |4,+>.
    assert np.allclose(sorted(check.computed.real), expected, rtol=0, atol=1e-12)
    assert check.excluded_value == pytest.approx(6.5, abs=1e-15)


def test_block_decomposition_broken_pairs_present():
    check = block_decomposition_check(ModelParams(5, 1, 3), 6)
    target = 0.5 + 2.2360679774997897j
    assert min(abs(check.computed - target)) < 1e-8
    assert min(abs(check.computed - target.conjugate())) < 1e-8


def test_block_decomposition_requires_two_levels():
    with pytest.raises(ValueError):
        block_decomposition_check(ModelParams(5, 1, 1), 1)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_symmetry_residuals(mu):
    report = symmetry_report(ModelParams(**FIG, mu=mu), 5)
    assert report.commutator_residual < 1e-12 * report.h_norm
    assert report.sigma_z_residual < 1e-12 * report.h_norm
    assert report.parity_residual < 1e-12 * report.h_norm
    assert report.pt_residual > 0.1 * report.h_norm


def test_symmetry_report_hermitian_limit_raw_numbers():
    report = symmetry_report(ModelParams(5, 1, 0), 5)
    assert report.commutator_residual < 1e-12 * report.h_norm
    assert report.sigma_z_residual < 1e-12 * report.h_norm
    assert report.parity_residual < 1e-12 * report.h_norm
    # The time-reversal image still flips the splitting term, so the residual
    # stays finite for alpha != 0.
    assert report.pt_residual > 0.0


def test_symmetry_holds_at_coalescence_too():
    report = symmetry_report(ModelParams(5, 1, 2), 5)
    assert report.commutator_residual < 1e-12 * report.h_norm
