import collections
import math
import random

import mpmath
import numpy as np
import pytest

from spinosc.fullspace import assemble_full
from spinosc.model import ModelParams, build_block
from spinosc.smallmat import DefectiveMatrix, eig2, eigN, expm2
from spinosc.spectral import critical_coupling

# Deterministic bank of well-behaved 2x2 matrices for property checks.
MATRICES = [
    np.array([[2.5, 1.0], [-1.0, -1.5]], dtype=complex),
    np.array([[2.5, 3.0], [-3.0, -1.5]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -2.0]], dtype=complex),
    np.array([[0.0, 1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0 + 0.5j, -0.3], [0.7, -2.0 + 0.25j]], dtype=complex),
    np.array([[0.2, 4.0], [0.5, -0.1]], dtype=complex),
]


def _series_expm(m, scale, terms=30):
    """Independent oracle: scaled 30-term Taylor sum with repeated squaring."""
    a = np.asarray(m, dtype=complex) * scale
    nsq = 0
    while np.linalg.norm(a, ord=np.inf) > 0.5:
        a = a / 2.0
        nsq += 1
    term = np.eye(2, dtype=complex)
    total = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        total = total + term
    for _ in range(nsq):
        total = total @ total
    return total


def test_eig2_diagonal():
    pairs = eig2(np.diag([2.5, -1.5]))
    assert sorted(p.value.real for p in pairs) == [-1.5, 2.5]


def test_eig2_reference_values_against_companion_roots():
    m = np.array([[2.5, 1.0], [-1.0, -1.5]])
    pairs = eig2(m)
    got = sorted((p.value.real for p in pairs), reverse=True)
    assert got[0] == pytest.approx(2.2320508075688773, abs=1e-14)
    assert got[1] == pytest.approx(-1.2320508075688773, abs=1e-14)
    # Independent route: roots of the characteristic polynomial via the
    # companion-matrix solver.
    ref = sorted(np.roots([1.0, -np.trace(m), np.linalg.det(m)]).real, reverse=True)
    assert np.allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", MATRICES)
def test_eig2_vector_residuals(m):
    norm = np.linalg.norm(m)
    for p in eig2(m):
        right, left = np.array(p.right_vector), np.array(p.left_vector)
        right_res = np.linalg.norm(m @ right - p.value * right)
        left_res = np.linalg.norm(m.conj().T @ left - np.conj(p.value) * left)
        assert right_res <= 1e-12 * norm * np.linalg.norm(right)
        assert left_res <= 1e-12 * norm * np.linalg.norm(left)


@pytest.mark.parametrize("m", MATRICES)
def test_eig2_trace_and_det_invariants(m):
    pairs = eig2(m)
    total = pairs[0].value + pairs[1].value
    product = pairs[0].value * pairs[1].value
    assert abs(total - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))
    assert abs(product - np.linalg.det(m)) <= 1e-12 * max(1.0, abs(np.linalg.det(m)))


def test_eig2_defective_raises_with_coalesced_values():
    with pytest.raises(DefectiveMatrix) as info:
        eig2(np.array([[2.5, 2.0], [-2.0, -1.5]]))
    assert info.value.eigenvalues == (0.5, 0.5)


def test_eig2_scalar_matrix_is_not_defective():
    pairs = eig2(2.5 * np.eye(2))
    assert all(p.value == 2.5 for p in pairs)
    assert np.allclose(pairs[0].right_vector, [1.0, 0.0])
    assert np.allclose(pairs[1].right_vector, [0.0, 1.0])


@pytest.mark.parametrize("k", [-60, -40, -20, 20, 40])
def test_eig2_eigenvalues_scale_bit_for_bit_with_the_block(k):
    # Both of eig2's tests are relative to the entries, so a power-of-two
    # scale is exact: no absolute floor calls a small block defective.
    scale = 2.0**k
    want = [pair.value for pair in eig2(build_block(ModelParams(5.0, 1.0, 1.0), 0))]
    got = [pair.value for pair in eig2(build_block(ModelParams(5.0 * scale, scale, scale), 0))]
    assert got == [scale * value for value in want]


@pytest.mark.parametrize("scale", [1.0, 2.0**-1000, 5e-324])
def test_eig2_jordan_block_is_defective_at_every_scale(scale):
    # disc == 0 with a zero band: the subnormal floor keeps it defective, with no 0/0 for lambda_2.
    with pytest.raises(DefectiveMatrix):
        eig2(np.array([[0.0, scale], [0.0, 0.0]]))


def test_expm2_zero_matrix():
    assert np.allclose(expm2(np.zeros((2, 2)), 3.7), np.eye(2), rtol=0, atol=1e-15)


def test_expm2_diagonal():
    out = expm2(np.diag([2.5, -1.5]), -1.0)
    expected = np.diag([0.082084998623898795, 4.4816890703380648])
    assert np.allclose(out, expected, rtol=1e-14, atol=0)


def test_expm2_reference_point():
    out = expm2(np.array([[2.5, 1.0], [-1.0, -1.5]]), -1.0)
    expected = np.array(
        [
            [-0.14956784469256664, -0.95867421113301536],
            [0.95867421113301536, 3.6851289998394948],
        ]
    )
    assert np.allclose(out, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("scale", [-2.0, -1.0, -0.1, 0.5, 1.0])
@pytest.mark.parametrize("m", MATRICES)
def test_expm2_matches_series(m, scale):
    ref = _series_expm(m, scale)
    out = expm2(m, scale)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "m,scale",
    [
        # exp(s c) overflows.
        (np.diag([800.0, 0.0]), 1.0),
        (np.array([[800.0, 1.0], [-1.0, 800.0]]), 1.0),
        # exp(s c) = 1; cosh(s q) and sinh(s q) overflow.
        (np.array([[0.0, 720.0], [720.0, 0.0]]), -1.0),
    ],
)
def test_expm2_raises_where_its_result_leaves_double_range(m, scale):
    # pytest turns warnings into errors, so this also checks numpy prints none.
    with pytest.raises(OverflowError, match=r"^exp\(.* \* m\) leaves double range$"):
        expm2(m, scale)


def test_expm2_defective_input_uses_series_branch():
    m = np.array([[2.5, 2.0], [-2.0, -1.5]])  # coalesced eigenvalues, q^2 = 0
    ref = _series_expm(m, -1.0)
    assert np.linalg.norm(expm2(m, -1.0) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_expm2_at_zero_q_is_the_exact_limit():
    # M^2 = 0, so exp(s m) = e^{s c} (I + s M) with c = 0.5, M = [[2, 2], [-2, -2]].
    out = expm2(np.array([[2.5, 2.0], [-2.0, -1.5]]), -1.0)
    assert np.array_equal(out, np.exp(-0.5) * np.array([[-1.0, -2.0], [2.0, 3.0]]))


def test_expm2_near_coalescence_against_50_digit_values():
    # Model blocks within 1e-15..1e-3 (relative) of mu_c on both sides, where
    # q is tiny and the closed form has to carry sinh(s q)/q.
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    worst, compared = 0.0, 0
    with mpmath.workdps(50):
        for alpha in (5.0, -3.0):
            delta = 1.0 - alpha
            for n in (0, 7, 300):
                mu_c = critical_coupling(ModelParams(alpha, 1.0, 0.0), n)
                for mu in (mu_c * (1.0 + sign * 10.0**-k) for k in range(3, 16) for sign in (1.0, -1.0)):
                    h = build_block(ModelParams(alpha, 1.0, mu), n)
                    for tau in (0.1 * abs(delta), abs(delta), 10.0 * abs(delta)):
                        exact = mpmath.expm(mpmath.matrix(h) * (-1.0 / tau))
                        norm = mpmath.mnorm(exact, "f")
                        if not tiny <= norm <= huge:
                            continue  # the exact result lies outside double range
                        error = mpmath.mnorm(exact - mpmath.matrix(expm2(h, -1.0 / tau)), "f") / norm
                        worst = max(worst, float(error))
                        compared += 1
    assert compared > 400
    assert worst <= 1e-14


@pytest.mark.parametrize("m", MATRICES)
def test_expm2_inverse_identity(m):
    product = np.array(expm2(m, 0.7)) @ np.array(expm2(m, -0.7))
    assert np.linalg.norm(product - np.eye(2)) <= 1e-10


@pytest.mark.parametrize("m", MATRICES)
def test_expm2_determinant_identity(m):
    det = np.linalg.det(expm2(m, -1.3))
    expected = np.exp(-1.3 * np.trace(m))
    assert abs(det - expected) <= 1e-10 * abs(expected)


def _seeded_blocks(count=500, seed=2026):
    """(kind, block) pairs of complex 2x2 matrices as nested tuples, four kinds in turn.

    generic: Gaussian entries; q0: c I + x [[1, 1], [-1, -1]], whose traceless part squares to exactly 0;
    imaginary-q: c I + [[a, t], [-t, -a]] with real |t| > |a|; model: build_block at 2**-40 or 2**40 times
    a random point, alpha in [-10, 10], mu in [0, 5], n below 50.
    """
    rng = random.Random(seed)

    def gauss():
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))

    for k in range(count):
        kind = ("generic", "q0", "imaginary-q", "model")[k % 4]
        if kind == "generic":
            yield kind, ((gauss(), gauss()), (gauss(), gauss()))
        elif kind == "q0":
            c, x = gauss(), gauss()
            yield kind, ((c + x, x), (-x, c - x))
        elif kind == "imaginary-q":
            c, a = gauss(), rng.gauss(0.0, 1.0)
            t = rng.choice((-1.0, 1.0)) * (abs(a) + rng.uniform(0.1, 3.0))
            yield kind, ((c + a, t), (-t, c - a))
        else:
            s = 2.0 ** rng.choice((-40, 40))
            params = ModelParams(rng.uniform(-10.0, 10.0) * s, s, rng.uniform(0.0, 5.0) * s)
            yield kind, build_block(params, rng.randrange(50))


def test_kernels_match_numpy_on_seeded_blocks():
    # numpy is the independent reference: LAPACK's eigenvalues and the scaled Taylor series.
    kinds = collections.Counter()
    for kind, block in _seeded_blocks():
        kinds[kind] += 1
        m = np.array(block)
        norm = np.linalg.norm(m)
        if kind == "q0":
            with pytest.raises(DefectiveMatrix):
                eig2(block)
        else:
            pairs = eig2(block)
            reference = list(np.linalg.eigvals(m))
            for p in pairs:
                nearest = min(reference, key=lambda value: abs(value - p.value))
                reference.remove(nearest)
                assert abs(p.value - nearest) <= 1e-12 * norm, (kind, block)
                right, left = np.array(p.right_vector), np.array(p.left_vector)
                right_res = np.linalg.norm(m @ right - p.value * right)
                left_res = np.linalg.norm(m.conj().T @ left - np.conj(p.value) * left)
                assert right_res <= 1e-12 * norm * np.linalg.norm(right)
                assert left_res <= 1e-12 * norm * np.linalg.norm(left)
        for scale in (-2.0, -0.5, 1.0):
            ref = _series_expm(m, scale / norm)
            out = np.array(expm2(block, scale / norm))
            assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref), (kind, block)
    assert kinds == {"generic": 125, "q0": 125, "imaginary-q": 125, "model": 125}


def test_kernels_take_any_2x2_nested_sequence_and_return_tuples():
    block = [[2.5, 1.0], [-1.0, -1.5]]
    for m in (block, tuple(map(tuple, block)), np.array(block), np.array(block, dtype=complex)):
        out = expm2(m, -1.0)
        assert type(out) is tuple and all(type(row) is tuple and all(type(x) is complex for x in row) for row in out)
        assert out == expm2(block, -1.0)
        assert eig2(m) == eig2(block)
    for bad in ([[1.0, 2.0]], np.eye(3), [[1.0, 2.0], [3.0]], [["a", 1.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="^expected a 2x2 matrix of numbers$"):
            eig2(bad)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        expm2([[1.0, math.nan], [0.0, 1.0]], 1.0)


def test_eigN_identity():
    values = eigN(np.eye(4))
    assert np.allclose(sorted(values.real), [1.0, 1.0, 1.0, 1.0], rtol=0, atol=1e-14)


def test_eigN_block_diagonal_matches_eig2():
    block = np.array([[2.5, 1.0], [-1.0, -1.5]])
    big = np.zeros((4, 4), dtype=complex)
    big[:2, :2] = block
    big[2:, 2:] = block
    values = sorted(eigN(big).real)
    expected = sorted(p.value.real for p in eig2(block)) * 2
    assert np.allclose(values, sorted(expected), rtol=0, atol=1e-8)


def test_eigN_diagonal_pair_multiset():
    big = np.kron(np.eye(2), np.diag([2.5, -1.5]))
    assert np.allclose(sorted(eigN(big).real), [-1.5, -1.5, 2.5, 2.5], rtol=0, atol=1e-12)


def test_eigN_truncated_hamiltonian_contains_known_values():
    sparse = assemble_full(ModelParams(5, 1, 1), 6)
    h = np.zeros((14, 14), dtype=complex)  # levels 0..6, two spins each
    for (i, j), value in sparse.items():
        h[i, j] = value
    values = eigN(h)
    for target in (-2.5, 0.5 + np.sqrt(3), 0.5 - np.sqrt(3)):
        assert min(abs(values - target)) < 1e-8


@pytest.mark.parametrize("m", MATRICES)
def test_eigN_residual_contract(m):
    # For each eigenvalue the smallest singular value of (m - lam I) bounds
    # the best achievable ||m v - lam v|| over unit vectors.
    norm = np.linalg.norm(m)
    for lam in eigN(m):
        smallest = np.linalg.svd(m - lam * np.eye(2), compute_uv=False)[-1]
        assert smallest <= 1e-8 * norm


def test_eigN_dimension_cap():
    with pytest.raises(ValueError):
        eigN(np.eye(257))


def test_eigN_rejects_non_square():
    with pytest.raises(ValueError):
        eigN(np.zeros((2, 3)))
