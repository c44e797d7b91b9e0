import math

import numpy as np
import pytest

from logalg import (DomainMismatchError, InvalidParameterError,
                    MatrixOperator, SingularStep, StepFunction,
                    decreasing_rearrangement, dlog_op, dtau, embed_diagonal,
                    fk_determinant, lognorm, lognorm_op, measure_above,
                    singular_numbers, spectral_project, split_at)
from conftest import make_random_matrix


def mat(rows):
    return MatrixOperator.make(rows)


def diag(*vals):
    return MatrixOperator.make(np.diag(np.asarray(vals, dtype=complex)))


def dtau_series(A, B, terms=60):
    """Independent partial-series evaluation of the measure-topology metric."""
    return sum(2.0 ** (-k) * measure_above(A - B, 1.0 / k)
               for k in range(1, terms + 1))


# ----------------------------------------------------------- singular numbers

def test_singular_numbers_diagonal():
    assert singular_numbers(diag(3, 1)) == SingularStep.make([(0.5, 3), (0.5, 1)])


def test_singular_numbers_unitary():
    th = 0.7
    U = mat([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    s = singular_numbers(U)
    assert s.total_width() == pytest.approx(1.0)
    assert all(h == pytest.approx(1.0, abs=1e-12) for _, h in s.steps)


def test_singular_numbers_nilpotent():
    s = singular_numbers(mat([[0, 2], [0, 0]]))
    assert s.steps == ((0.5, 2.0), (0.5, 0.0))


# -------------------------------------------------------------------- lognorm

def test_lognorm_op_zero():
    assert lognorm_op(MatrixOperator.zero(3)) == 0.0


def test_lognorm_op_scalar_identity():
    T = MatrixOperator.identity(4).scaled(math.e - 1)
    assert lognorm_op(T) == pytest.approx(1.0, abs=1e-14)


def test_lognorm_op_nilpotent():
    assert lognorm_op(mat([[0, 2], [0, 0]])) == pytest.approx(
        0.5 * math.log(3), abs=1e-14)


def test_lognorm_op_positive_when_trace_underflows():
    # (1/3) log(1 + 5e-324) rounds to 0.0, yet T is not the zero matrix
    T = diag(5e-324, 0, 0)
    assert lognorm_op(T) > 0
    assert dlog_op(T, MatrixOperator.zero(3)) > 0


def test_lognorm_matches_singular_step_integral(rng):
    for _ in range(50):
        T = make_random_matrix(rng, int(rng.integers(1, 9)))
        assert lognorm_op(T) == pytest.approx(
            singular_numbers(T).log_integral(), abs=1e-12)


def test_dlog_op_examples():
    T = diag(3, 1)
    assert dlog_op(T, T) == 0.0
    assert dlog_op(T, MatrixOperator.zero(2)) == lognorm_op(T)
    assert dlog_op(diag(1, 1), T) == pytest.approx(0.5 * math.log(3), abs=1e-14)


def test_dimension_mismatch():
    with pytest.raises(DomainMismatchError):
        dlog_op(MatrixOperator.zero(2), MatrixOperator.zero(3))
    with pytest.raises(DomainMismatchError):
        dtau(MatrixOperator.zero(2), MatrixOperator.zero(3))


# ----------------------------------------------------------------------- dtau

def test_dtau_identical():
    T = diag(1, 2)
    assert dtau(T, T) == 0.0


def test_dtau_unit_difference():
    assert dtau(diag(1, 0), MatrixOperator.zero(2)) == pytest.approx(0.5)


def test_dtau_small_difference():
    assert dtau(diag(0.4, 0.4), MatrixOperator.zero(2)) == pytest.approx(0.25)


def test_dtau_tiny_difference_underflows_to_zero():
    # 1/sigma overflows here; the term 2^(1-k0)/n is 0.0 for every sigma < 2^-11
    assert dtau(diag(1e-310, 1e-310), MatrixOperator.zero(2)) == 0.0
    assert dtau(diag(1e-5, 0.4), MatrixOperator.zero(2)) == pytest.approx(0.125)


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
        assert np.allclose(P.entries.conj().T, P.entries, atol=1e-10)


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
    assert fk_determinant(MatrixOperator.identity(5)) == 1.0


def test_fk_determinant_geometric_mean():
    assert fk_determinant(diag(2, 0.5)) == pytest.approx(1.0, abs=1e-14)


def test_fk_determinant_singular_matrix():
    assert fk_determinant(mat([[0, 2], [0, 0]])) == 0.0


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
        muS = [h for _, h in singular_numbers(S).steps]
        muT = [h for _, h in singular_numbers(T).steps]
        bound = sum(math.log1p(a * b) for a, b in zip(muS, muT)) / n
        assert lognorm_op(S @ T) <= bound + 1e-10


def test_one_sided_multiplication_continuity(rng):
    S = make_random_matrix(rng, 6)
    R = make_random_matrix(rng, 6)
    norms = [lognorm_op(S @ R.scaled(2.0 ** -k)) for k in range(0, 30)]
    tail = norms[2:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert norms[-1] < 1e-6
