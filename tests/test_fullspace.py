import math

import numpy as np
import pytest

from spinosc import fullspace
from spinosc.fullspace import SymmetryReport, assemble_full, block_decomposition_check, symmetry_report
from spinosc.model import ModelParams
from spinosc.spectral import block_spectrum, critical_coupling

FIG = dict(alpha=5.0, homega=1.0)


def _dense(h, cutoff):
    # The dict of nonzero entries as a dense numpy matrix on oscillator levels 0..cutoff.
    m = np.zeros((2 * (cutoff + 1), 2 * (cutoff + 1)), dtype=complex)
    for (i, j), value in h.items():
        m[i, j] = value
    return m


def _nearest(values, target):
    return min(abs(value - target) for value in values)


def _grading(index: int) -> float:
    # (-1)^n * (2 m_s) for basis index 2n + (0 up / 1 down)
    n, spin = divmod(index, 2)
    return (-1.0) ** n * (1.0 if spin == 0 else -1.0)


def test_space_validation_and_dim():
    h = assemble_full(ModelParams(5, 1, 1), 4)
    # A plain dict on a space of dimension 2 * (4 + 1): |4,-> at index 9 has the entry -2.5 + 4.
    assert type(h) is dict and min(map(min, h)) == 0 and max(map(max, h)) == 9
    with pytest.raises(ValueError, match="cutoff must be >= 1, got 0"):
        assemble_full(ModelParams(5, 1, 1), 0)
    for cutoff in (2.5, True):
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            assemble_full(ModelParams(5, 1, 1), cutoff)


def test_assemble_diagonal_limit():
    h = assemble_full(ModelParams(5, 1, 0), 2)
    expected = np.diag([2.5, -2.5, 3.5, -1.5, 4.5, -0.5])
    assert np.allclose(_dense(h, 2), expected, rtol=0, atol=1e-15)


def test_assemble_keeps_only_nonzero_entries():
    # alpha 2, homega 1: the diagonal entry of |1,-> is -1 + 1 = 0; mu = 0 leaves no coupling.
    h = assemble_full(ModelParams(2, 1, 0), 3)
    assert 0 not in h.values() and (3, 3) not in h and len(h) == 7
    assert len(assemble_full(ModelParams(5, 1, 1), 127)) == 256 + 2 * 127


def test_assemble_embeds_first_block():
    h = assemble_full(ModelParams(5, 1, 1), 3)
    # (|0,+>, |1,->) live at indices (0, 3).
    sub = _dense(h, 3)[np.ix_([0, 3], [0, 3])]
    assert np.allclose(sub, [[2.5, 1.0], [-1.0, -1.5]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("mu", [0.0, 1.0, 3.0])
def test_ground_state_row_is_decoupled(mu):
    h = _dense(assemble_full(ModelParams(**FIG, mu=mu), 4), 4)
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
    for i, j in h:
        assert _grading(i) == _grading(j)


@pytest.mark.parametrize("mu", [0.0, 1.0, 3.0])
def test_ground_state_present(mu):
    check = block_decomposition_check(ModelParams(**FIG, mu=mu), 6)
    assert _nearest(check.computed, -2.5) < 1e-8


def test_block_decomposition_contains_first_block_values():
    check = block_decomposition_check(ModelParams(5, 1, 1), 6)
    for target in (-2.5, 0.5 + np.sqrt(3), 0.5 - np.sqrt(3)):
        assert _nearest(check.computed, target) < 1e-8


def test_block_decomposition_multiset_equality_off_coalescence():
    for mu in (0.0, 0.6, 1.3, 3.0):
        check = block_decomposition_check(ModelParams(**FIG, mu=mu), 8)
        assert check.max_deviation < 1e-8, f"mu={mu}: max deviation {check.max_deviation}"


def test_block_decomposition_hermitian_limit_exact_levels():
    check = block_decomposition_check(ModelParams(5, 1, 0), 4)
    expected = sorted([-2.5, 2.5, -1.5, 3.5, -0.5, 4.5, 0.5, 5.5, 1.5])
    # cutoff 4 keeps the ground state, blocks n=0..3, and excludes |4,+>.
    assert np.allclose(sorted(value.real for value in check.computed), expected, rtol=0, atol=1e-12)
    assert check.excluded_value == pytest.approx(6.5, abs=1e-15)


def test_block_decomposition_broken_pairs_present():
    check = block_decomposition_check(ModelParams(5, 1, 3), 6)
    target = 0.5 + 2.2360679774997897j
    assert _nearest(check.computed, target) < 1e-8
    assert _nearest(check.computed, target.conjugate()) < 1e-8


def test_block_decomposition_requires_two_levels():
    with pytest.raises(ValueError, match="cutoff must be >= 2 for a block comparison, got 1"):
        block_decomposition_check(ModelParams(5, 1, 1), 1)


@pytest.mark.parametrize("cutoff", ["3", True])
def test_block_decomposition_validates_the_cutoff_before_comparing_it(cutoff):
    with pytest.raises(ValueError, match=f"^cutoff must be an integer, got {cutoff!r}$"):
        block_decomposition_check(ModelParams(5, 1, 1), cutoff)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_symmetry_residuals(mu):
    report = symmetry_report(ModelParams(**FIG, mu=mu), 5)
    assert report.commutator_residual < 1e-12 * report.h_norm
    assert report.sigma_z_residual < 1e-12 * report.h_norm
    assert report.parity_residual < 1e-12 * report.h_norm
    # H_pt - H = -alpha sigma_z + mu sigma_x (a^dag - a), entry by entry.
    assert report.pt_residual < 1e-12 * report.h_norm


def test_symmetry_report_hermitian_limit_raw_numbers():
    report = symmetry_report(ModelParams(5, 1, 0), 5)
    assert report.commutator_residual < 1e-12 * report.h_norm
    assert report.sigma_z_residual < 1e-12 * report.h_norm
    assert report.parity_residual < 1e-12 * report.h_norm
    # The time-reversal image still flips the splitting term: H_pt - H = -alpha sigma_z at mu = 0.
    assert report.pt_residual < 1e-12 * report.h_norm
    h = _dense(assemble_full(ModelParams(5, 1, 0), 5), 5)
    assert np.linalg.norm(_dense_pt_image(h) - h) == pytest.approx(5.0 * math.sqrt(12), rel=1e-15)


def test_symmetry_holds_at_coalescence_too():
    report = symmetry_report(ModelParams(5, 1, 2), 5)
    assert report.commutator_residual < 1e-12 * report.h_norm


def _dense_pt_image(h):
    # The PT flip: sigma_y on every level, then complex conjugation.
    flip = np.kron(np.eye(h.shape[0] // 2), np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    return (flip @ h @ flip).conj()


def _closed_pt_difference(params, levels):
    # -alpha sigma_z + mu sigma_x (a^dag - a), osc (x) spin, with a = diag(sqrt(1..L-1), 1).
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    return (-params.alpha * np.kron(np.eye(levels), np.diag([1.0, -1.0]))
            + params.mu * np.kron(a.T - a, np.array([[0.0, 1.0], [1.0, 0.0]])))


def _norm(m):
    # The library's norm, math.hypot over the entries in row-major order.
    return math.hypot(*(abs(x) for x in m.flat))


def _dense_symmetry_report(params, cutoff):
    # Reference: sigma_z, the Fock parity and the PT flip as dense 2L x 2L products.
    h = _dense(assemble_full(params, cutoff), cutoff)
    h_dag = h.conj().T
    levels = h.shape[0] // 2
    sz = np.kron(np.eye(levels), np.diag([1.0, -1.0])).astype(complex)
    parity = np.kron(np.diag([(-1.0) ** n for n in range(levels)]), np.eye(2)).astype(complex)
    grading = parity @ sz
    return SymmetryReport(
        commutator_residual=_norm(h @ grading - grading @ h),
        sigma_z_residual=_norm(sz @ h @ sz - h_dag),
        parity_residual=_norm(parity @ h @ parity - h_dag),
        pt_residual=_norm(_dense_pt_image(h) - h - _closed_pt_difference(params, levels)),
        h_norm=_norm(h),
    )


@pytest.mark.parametrize("alpha,homega", [(5.0, 1.0), (41.0, 1.0), (0.5, 1.0), (1e10, 1.0), (-5.0, 1.0),
                                          (5.0 * 2.0**-40, 2.0**-40)])
@pytest.mark.parametrize("cutoff", [1, 2, 8, 127])
def test_symmetry_report_has_the_bits_of_the_dense_products(alpha, homega, cutoff):
    # Each dense product only multiplies entries by +-1 or +-i and adds exact zeros.
    mu_c = critical_coupling(ModelParams(alpha, homega, 0.0), 0)
    for fraction in (0.0, 0.2, 0.5, 1.0, 1.5, 2.0):
        params = ModelParams(alpha, homega, fraction * mu_c)
        fields = [value.hex() for value in symmetry_report(params, cutoff)]
        assert fields == [value.hex() for value in _dense_symmetry_report(params, cutoff)], params


def test_block_check_counts_an_entry_outside_the_blocks_at_its_size(monkeypatch):
    # |0,+> coupled to |2,-> lies in no invariant block: the spectra still match, the entry does not.
    real = fullspace.assemble_full

    def with_stray_entry(params, cutoff):
        h = real(params, cutoff)
        h[(0, 5)] = 1e-3
        return h

    monkeypatch.setattr(fullspace, "assemble_full", with_stray_entry)
    assert block_decomposition_check(ModelParams(5, 1, 1), 4).max_deviation == 1e-3


def test_block_check_takes_a_coalesced_block_from_its_defective_pair():
    params = ModelParams(5, 1, critical_coupling(ModelParams(5, 1, 0), 1))
    check = block_decomposition_check(params, 4)
    assert check.computed[3] == check.computed[4]  # eig2 raised DefectiveMatrix with the pair (tr / 2, tr / 2)
    assert check.max_deviation < 1e-12 * max(abs(value) for value in check.computed)


@pytest.mark.parametrize("cutoff", [8, 127])
@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.65, 1.5])
def test_dense_eigenvalues_match_the_union_of_the_blocks(cutoff, fraction):
    # The dense cross-check: numpy's eigvals of the map, less the leftover |cutoff,+>, against the
    # ground state and every block's closed-form pair, within verify's bound of the spectral radius.
    params = ModelParams(**FIG, mu=fraction * critical_coupling(ModelParams(**FIG, mu=0.0), 0))
    keep = [i for i in range(2 * (cutoff + 1)) if i != 2 * cutoff]
    remaining = np.linalg.eigvals(_dense(assemble_full(params, cutoff), cutoff)[np.ix_(keep, keep)]).tolist()
    expected = [complex(-0.5 * params.alpha)]
    for n in range(cutoff):
        expected.extend(block_spectrum(params, n)[:2])
    radius = max(map(abs, remaining))
    for value in expected:
        best = min(range(len(remaining)), key=lambda k: abs(remaining[k] - value))
        assert abs(remaining.pop(best) - value) < 1e-12 * radius, (n, value)
    assert remaining == []
