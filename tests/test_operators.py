import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logalg import (DomainMismatchError, InvalidParameterError,
                    MalformedInputError, MatrixOperator, SingularStep, StepFunction,
                    decreasing_rearrangement, dlog_op, dtau, embed_diagonal,
                    fk_determinant, lognorm, lognorm_op, measure_above,
                    selftest, singular_numbers, spectral_project, split_at)
from conftest import make_random_matrix


def mat(rows):
    return MatrixOperator.make(rows)


def diag(*vals):
    return MatrixOperator.make(np.diag(np.asarray(vals, dtype=complex)))


def zero(n):
    return MatrixOperator.make(np.zeros((n, n)))


def identity(n):
    return MatrixOperator.make(np.eye(n))


def dtau_series(A, B, terms=60):
    """Independent partial-series evaluation of the measure-topology metric."""
    return sum(2.0 ** (-k) * measure_above(A - B, 1.0 / k)
               for k in range(1, terms + 1))


def test_from_json_refuses_integer_beyond_double():
    with pytest.raises(MalformedInputError):
        MatrixOperator.from_json({"n": 1, "re": [[10 ** 400]]})


# -------------------------------------------------------------- construction

@pytest.mark.parametrize("build", [MatrixOperator.make, MatrixOperator], ids=["make", "init"])
@pytest.mark.parametrize("entries", [
    np.ones((2, 3)), np.zeros((0, 0)), np.ones(3), np.ones((1, 1, 1)),
    np.array([[np.nan]]), np.array([[1, np.inf], [0, 1]]), np.array([[complex(0, -np.inf)]]),
], ids=["2x3", "0x0", "vector", "3d", "nan", "inf", "imag-inf"])
def test_every_construction_refuses_malformed_entries(build, entries):
    with pytest.raises(MalformedInputError):
        build(entries)


@pytest.mark.parametrize("build", [MatrixOperator.make, MatrixOperator], ids=["make", "init"])
def test_n_is_the_size_of_the_entries(build):
    T = build(np.eye(2))
    assert T.n == len(T.entries) == 2
    assert lognorm_op(T) == math.log(2)
    assert measure_above(T, 0.5) == 1.0
    with pytest.raises(TypeError):
        MatrixOperator(np.eye(2), 5)  # no size can disagree with the entries


def test_operators_compare_and_hash_by_identity():
    A = mat(np.eye(2))
    assert A == A
    assert A != MatrixOperator.make(A.entries)
    assert {A, A} == {A}
    assert hash(A) == hash(A)


# ----------------------------------------------------------- singular numbers

def test_singular_numbers_diagonal():
    assert singular_numbers(diag(3, 1)) == SingularStep([(0.5, 3), (0.5, 1)])


def test_singular_numbers_unitary():
    th = 0.7
    U = mat([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    s = singular_numbers(U)
    assert sum(w for w, _ in s.steps) == pytest.approx(1.0)
    assert all(h == pytest.approx(1.0, abs=1e-12) for _, h in s.steps)


def test_singular_numbers_nilpotent():
    s = singular_numbers(mat([[0, 2], [0, 0]]))
    assert s.steps == ((0.5, 2.0),)  # zero after its steps: sigma_2 = 0 lists no step


# -------------------------------------------------------------------- lognorm

def test_lognorm_op_zero():
    assert lognorm_op(zero(3)) == 0.0


def test_lognorm_op_scalar_identity():
    T = identity(4).scaled(math.e - 1)
    assert lognorm_op(T) == pytest.approx(1.0, abs=1e-14)


def test_lognorm_op_nilpotent():
    assert lognorm_op(mat([[0, 2], [0, 0]])) == pytest.approx(
        0.5 * math.log(3), abs=1e-14)


def test_lognorm_op_positive_when_trace_underflows():
    # (1/3) log(1 + 5e-324) rounds to 0.0, yet T is not the zero matrix
    T = diag(5e-324, 0, 0)
    assert lognorm_op(T) > 0
    assert dlog_op(T, zero(3)) > 0


def test_lognorm_matches_singular_step_integral(rng):
    for _ in range(50):
        T = make_random_matrix(rng, int(rng.integers(1, 9)))
        assert lognorm_op(T) == pytest.approx(
            singular_numbers(T).log_integral(), abs=1e-12)


def test_dlog_op_examples():
    T = diag(3, 1)
    assert dlog_op(T, T) == 0.0
    assert dlog_op(T, zero(2)) == lognorm_op(T)
    assert dlog_op(diag(1, 1), T) == pytest.approx(0.5 * math.log(3), abs=1e-14)


def test_dimension_mismatch():
    with pytest.raises(DomainMismatchError):
        dlog_op(zero(2), zero(3))
    with pytest.raises(DomainMismatchError):
        dtau(zero(2), zero(3))


# ----------------------------------------------------------------------- dtau

def test_dtau_identical():
    T = diag(1, 2)
    assert dtau(T, T) == 0.0


def test_dtau_unit_difference():
    assert dtau(diag(1, 0), zero(2)) == pytest.approx(0.5)


def test_dtau_small_difference():
    assert dtau(diag(0.4, 0.4), zero(2)) == pytest.approx(0.25)


def test_dtau_tiny_difference_underflows_to_zero():
    # 1/sigma overflows here; the term 2^(1-k0)/n is 0.0 for every sigma < 2^-11
    assert dtau(diag(1e-310, 1e-310), zero(2)) == 0.0
    assert dtau(diag(1e-5, 0.4), zero(2)) == pytest.approx(0.125)


@pytest.mark.parametrize("sigma, want", [
    (math.nextafter(0.1, 0), 2.0 ** -10),  # 1 / sigma rounds to 10: k0 rises to 11
    (1 / 49, 2.0 ** -48),                   # ceil(1 / sigma) is 50: k0 falls to 49
])
def test_dtau_aligns_the_threshold_with_the_membership_test(sigma, want):
    # the smallest k with 1/k <= sigma, tested in floats, is k0; sigma counts 2^(1 - k0)
    assert dtau(diag(sigma), zero(1)) == want


def test_dtau_matches_series(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A, B = make_random_matrix(rng, n), make_random_matrix(rng, n)
        assert abs(dtau(A, B) - dtau_series(A, B)) <= 2.0 ** -60 + 1e-12


def test_measure_vs_log_comparison(rng):
    for _ in range(100):
        A = make_random_matrix(rng, int(rng.integers(1, 9)))
        for delta in (0.1, 1.0, 10.0):
            assert measure_above(A, delta) <= \
                lognorm_op(A.scaled(3.0 / delta)) + 1e-10


# ------------------------------------------------------------------- spectral

def test_spectral_project_eigenvalue_selection():
    P = spectral_project(diag(2, 0.5), 1.0)
    assert np.allclose(P.entries, np.diag([1.0, 0.0]))


def test_spectral_project_full_interval_is_identity():
    T = mat([[1, 2], [3, 4]])
    P = spectral_project(T, 0.0)
    assert np.allclose(P.entries, np.eye(2), atol=1e-10)


def test_spectral_project_rank_one():
    T = mat([[0, 2], [0, 0]])
    P = spectral_project(T, 1.0)
    # right-singular vector of sigma = 2 is e2
    assert np.allclose(P.entries, np.diag([0.0, 1.0]), atol=1e-12)


def test_spectral_project_idempotent_selfadjoint(rng):
    for _ in range(25):
        T = make_random_matrix(rng, int(rng.integers(1, 7)))
        P = spectral_project(T, 1.0)
        assert np.allclose(P.entries @ P.entries, P.entries, atol=1e-10)
        assert np.array_equal(P.entries.conj().T, P.entries)


def test_spectral_project_invalid_interval():
    with pytest.raises(InvalidParameterError):
        spectral_project(diag(1, 2), 2.0, 1.0)
    with pytest.raises(InvalidParameterError):
        spectral_project(diag(1, 2), -1.0)


# ---------------------------------------------------------------------- split

def test_split_at_diagonal():
    s = split_at(diag(3, 0.5), 1.0)
    assert np.allclose(s.bounded_part.entries, np.diag([0.0, 0.5]), atol=1e-12)
    assert np.allclose(s.tail_part.entries, np.diag([3.0, 0.0]), atol=1e-12)


def test_split_above_norm_has_zero_tail():
    T = mat([[1, 2], [3, 4]])
    s = split_at(T, 10.0)
    assert np.allclose(s.tail_part.entries, 0.0)
    assert np.allclose(s.bounded_part.entries, T.entries)


def test_split_invariants(rng):
    for _ in range(25):
        T = make_random_matrix(rng, int(rng.integers(1, 7)))
        K = float(rng.uniform(0.5, 5))
        s = split_at(T, K)
        recon = s.bounded_part.entries + s.tail_part.entries
        assert np.max(np.abs(recon - T.entries)) <= 1e-12 * max(1, np.max(np.abs(T.entries)))
        assert s.bounded_part.operator_norm() <= K + 1e-10
        # tail norm equals the singular-step integral above the cutoff
        tail_integral = sum(w * math.log1p(h)
                            for w, h in singular_numbers(T).steps if h > K)
        assert lognorm_op(s.tail_part) == pytest.approx(tail_integral, abs=1e-10)


def test_split_invalid_cutoff():
    with pytest.raises(InvalidParameterError):
        split_at(diag(1, 2), 0.0)


# ---------------------------------------------------------------- determinant

def test_fk_determinant_identity():
    assert fk_determinant(identity(5)) == 1.0


def test_fk_determinant_geometric_mean():
    assert fk_determinant(diag(2, 0.5)) == pytest.approx(1.0, abs=1e-14)


def test_fk_determinant_singular_matrix():
    assert fk_determinant(mat([[0, 2], [0, 0]])) == 0.0


def test_small_singular_values_above_the_noise_floor_are_kept():
    # sigma = 1 is far above the rank noise floor sigma_max * n * eps = 4.4e-3
    T = diag(1e13, 1)
    assert fk_determinant(T) == pytest.approx(math.sqrt(1e13), rel=1e-12)
    assert lognorm_op(T) == pytest.approx((math.log1p(1e13) + math.log(2)) / 2, rel=1e-12)


def test_rounding_noise_of_a_rank_one_matrix_is_an_exact_zero():
    # the SVD returns about 2e-16 for the second singular value, below 5 * 2 * eps
    T = mat([[1, 2], [2, 4]])
    assert T.singular_values[-1] == 0.0
    assert fk_determinant(T) == 0.0
    assert singular_numbers(T).steps == ((0.5, T.singular_values[0]),)


# ------------------------------------------------------------------ embedding

def test_embed_diagonal_half_support():
    f = StepFunction.make([(0, 0.5, 3)], 1.0)
    D = embed_diagonal(f, 2)
    assert np.allclose(D.entries, np.diag([3.0, 0.0]))


def test_embed_diagonal_zero():
    D = embed_diagonal(StepFunction.zero(1.0), 4)
    assert np.allclose(D.entries, 0.0)


def test_embed_diagonal_proportional_repetition():
    f = StepFunction.make([(0, 1 / 3, 1), (1 / 3, 1, 5)], 1.0)
    D = embed_diagonal(f, 3)
    assert np.allclose(D.entries, np.diag([1.0, 5.0, 5.0]))


def test_embed_diagonal_incommensurable_rejected():
    f = StepFunction.make([(0, 0.3, 1)], 1.0)
    with pytest.raises(InvalidParameterError):
        embed_diagonal(f, 2)


def test_embed_consistency(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        pieces = [(i / n, (i + 1) / n,
                   complex(rng.normal(0, 5), rng.normal(0, 5)))
                  for i in range(k)]
        f = StepFunction.make(pieces, 1.0)
        D = embed_diagonal(f, n)
        assert abs(lognorm_op(D) - lognorm(f)) <= 1e-12
        assert singular_numbers(D).approx_eq(decreasing_rearrangement(f))


# ----------------------------------------------------------------- properties

def test_matrix_fnorm_axioms(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        S, T = make_random_matrix(rng, n), make_random_matrix(rng, n)
        nS, nT = lognorm_op(S), lognorm_op(T)
        assert nT > 0
        assert abs(lognorm_op(T.adjoint()) - nT) <= 1e-12
        assert lognorm_op(T.scaled(0.3 + 0.4j)) <= nT + 1e-12
        assert lognorm_op(S + T) <= nS + nT + 1e-10
        prev = nT
        for k in range(1, 10):
            cur = lognorm_op(T.scaled(2.0 ** -k))
            assert cur <= prev + 1e-12
            prev = cur
        assert lognorm_op(T.scaled(2.0 ** -50)) <= 1e-10


def test_matrix_product_bounds(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        S, T = make_random_matrix(rng, n), make_random_matrix(rng, n)
        assert lognorm_op(S @ T) <= lognorm_op(S) + lognorm_op(T) + 1e-10
        assert lognorm_op(S @ T) <= \
            max(S.operator_norm(), 1.0) * lognorm_op(T) + 1e-10


def test_submajorization_product(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        S, T = make_random_matrix(rng, n), make_random_matrix(rng, n)
        bound = sum(math.log1p(a * b) for a, b in zip(S.singular_values, T.singular_values)) / n
        assert lognorm_op(S @ T) <= bound + 1e-10


def test_the_submajorization_check_pairs_every_singular_value(monkeypatch):
    # S = T = I: singular_numbers merges the n equal values into one step, which
    # read as one value each gives the bound log(2)/n below lognorm(ST) = log 2
    monkeypatch.setattr(selftest, "random_matrix", lambda rng, n: identity(n))
    sizes = selftest.Sizes(step_trials=1, trials=3, radial_k=1, smirnov_tol=1e-3)
    selftest._matrix_products(np.random.default_rng(0), sizes)


def test_one_sided_multiplication_continuity(rng):
    S = make_random_matrix(rng, 6)
    R = make_random_matrix(rng, 6)
    norms = [lognorm_op(S @ R.scaled(2.0 ** -k)) for k in range(0, 30)]
    tail = norms[2:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert norms[-1] < 1e-6


# ---------------------------------------------------------------- SVD cache

@pytest.fixture
def svd_calls(monkeypatch):
    """compute_uv of every np.linalg.svd call: False for values only, True for full."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kw):
        calls.append(kw.get("compute_uv", True))
        return svd(a, *args, **kw)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _split_bits(T, c):
    s = split_at(T, c)
    return s.bounded_part.entries.tobytes(), s.tail_part.entries.tobytes()


# every functional that reads a cached decomposition, with results that compare by ==
FUNCTIONALS = [
    lambda T, c: lognorm_op(T),
    lambda T, c: measure_above(T, c),
    lambda T, c: singular_numbers(T),
    lambda T, c: fk_determinant(T),
    lambda T, c: T.operator_norm(),
    lambda T, c: spectral_project(T, c).entries.tobytes(),
    _split_bits,
]


def test_one_decomposition_of_each_kind_per_operator(rng, svd_calls):
    T = make_random_matrix(rng, 6)
    for f in FUNCTIONALS[:5] * 2:
        f(T, 1.0)
    assert svd_calls == [False]
    for f in FUNCTIONALS[5:] * 2:
        f(T, 1.0)
    assert svd_calls == [False, True]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_cached_functionals_equal_a_fresh_operator(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rank = data.draw(st.integers(0, n))
    S = make_random_matrix(rng, n).entries.copy()
    S[:, rank:] = 0
    T = mat(S) @ make_random_matrix(rng, n).scaled(2.0 ** data.draw(st.integers(-8, 8)))
    c = data.draw(st.floats(0.01, 100.0))
    first = [f(T, c) for f in FUNCTIONALS]
    assert [f(T, c) for f in FUNCTIONALS] == first
    assert [f(MatrixOperator.make(T.entries), c) for f in FUNCTIONALS] == first


@pytest.mark.parametrize("build", [mat, MatrixOperator], ids=["make", "init"])
def test_cached_decompositions_cannot_go_stale(rng, build):
    a = make_random_matrix(rng, 5).entries.copy()
    want = [f(mat(a), 1.0) for f in FUNCTIONALS]
    T = build(a)
    a[0, 0] = 100.0  # before the first decomposition
    assert [f(T, 1.0) for f in FUNCTIONALS] == want
    a[1, 1] = 100.0  # after it
    assert [f(T, 1.0) for f in FUNCTIONALS] == want
    for frozen in (T.entries, T.singular_values, T.vh):
        with pytest.raises(ValueError):
            frozen[0] = 0.0
    assert [f(T, 1.0) for f in FUNCTIONALS] == want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_projections_and_splits_select_by_the_measured_singular_values(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rank = data.draw(st.integers(0, n))
    S = make_random_matrix(rng, n).entries.copy()
    S[:, rank:] = 0
    T = mat(S) @ make_random_matrix(rng, n)
    s = T.singular_values
    for delta in s[s > 0]:
        # n tau(E_{|T|}([delta, inf))) counts the sigma >= delta, as measure_above does
        P = spectral_project(T, delta)
        assert round(np.trace(P.entries).real) == round(n * measure_above(T, delta))
        # the tail holds exactly the sigma > delta; sigma = delta stays bounded
        tail = split_at(T, delta).tail_part.singular_values
        want = np.where(s > delta, s, 0.0)
        assert np.allclose(tail, want, rtol=0, atol=1e-9 * s[0])


def test_an_overflowing_sigma_max_is_not_flushed():
    # finite entries whose sigma_max = 2e308 overflows to inf; sigma_2 = 0
    T = mat([[1e308, 1e308], [1e308, 1e308]])
    assert lognorm_op(T) == math.inf
    assert T.operator_norm() == math.inf
    assert measure_above(T, 1.0) == 0.5
    assert dtau(T, zero(2)) == 0.5
    # sigma = sqrt(2) * 1e308 twice: finite, though sigma_max * n overflows
    T = mat([[1e308, 1e308], [1e308, -1e308]])
    assert list(T.singular_values) == pytest.approx([math.sqrt(2) * 1e308] * 2, rel=1e-12)
    assert lognorm_op(T) == pytest.approx(math.log(math.sqrt(2) * 1e308), rel=1e-12)


def test_singular_numbers_refuse_an_overflowing_sigma_max():
    # sigma_max = 2e308 overflows to inf, which no step height may be
    with pytest.raises(InvalidParameterError, match="value overflows a double"):
        singular_numbers(mat([[1e308, 1e308], [1e308, 1e308]]))


def test_derived_operators_run_their_own_svd(rng, svd_calls):
    S, T = make_random_matrix(rng, 4), make_random_matrix(rng, 4)
    for A in (S, T):
        lognorm_op(A)
        spectral_project(A, 1.0)
    del svd_calls[:]
    derived = [T.adjoint(), T.scaled(2.0), S + T, S - T, S @ T]
    for D in derived:
        lognorm_op(D)
        spectral_project(D, 1.0)
    assert svd_calls == [False, True] * len(derived)
    assert lognorm_op(T.scaled(2.0)) > lognorm_op(T)
