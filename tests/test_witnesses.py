import math

import pytest

from logalg import (DomainMismatchError, InvalidParameterError, StepFunction,
                    cauchy_limit, convex_split, dlog, lognorm, scale,
                    separation_sequence, truncate, unboundedness_witness)

ONE = StepFunction.make([(0, 1, 1.0)], 1.0)


# -------------------------------------------------------------- unboundedness

def test_unboundedness_reference_case():
    w = unboundedness_witness(1.0, 2)
    assert w.K == 2.0
    assert w.norm_f < 1.0
    assert w.norm_f_over_N >= 0.5
    assert w.verify()


def test_unboundedness_degenerate_N1():
    w = unboundedness_witness(1.0, 1)
    assert 0.5 <= w.norm_f < 1.0
    assert w.verify()


def test_unboundedness_grid():
    for eps in (0.1, 1.0):
        for N in (2, 10):
            w = unboundedness_witness(eps, N)
            assert w.verify()
            assert w.norm_f == pytest.approx(w.eta * math.log1p(w.K))
            assert w.norm_f_over_N == pytest.approx(w.eta * math.log1p(w.K / N))


def test_unboundedness_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        unboundedness_witness(0.0, 2)
    with pytest.raises(InvalidParameterError):
        unboundedness_witness(1.0, 0)


# --------------------------------------------------------------- convex split

def test_convex_split_zero_function():
    split = convex_split(StepFunction.zero(1.0), 0.5)
    assert split.n == 1
    assert split.average().is_zero()


def test_convex_split_single_piece_when_eps_large():
    split = convex_split(ONE, 1.0)
    assert split.n == 1
    assert split.pieces == (ONE,)


def test_convex_split_constant_one_eps_tenth():
    split = convex_split(ONE, 0.1)
    assert split.n == 37
    # constant integrand: equal spacing
    for j, x in enumerate(split.breakpoints):
        assert x == pytest.approx(j / 37, abs=1e-12)
    assert all(lognorm(p) < 0.1 for p in split.pieces)
    assert dlog(split.average(), ONE) == 0.0


def test_convex_split_minimality():
    f = StepFunction.make([(0, 0.5, 4.0), (0.5, 0.9, 0.25)], 1.0)
    split = convex_split(f, 0.2)
    if split.n > 1:
        assert lognorm(scale(f, split.n - 1)) / (split.n - 1) >= 0.2
    assert lognorm(scale(f, split.n)) / split.n < 0.2


def test_convex_split_piece_norms_balanced():
    f = StepFunction.make([(0.1, 0.4, 2 - 1j), (0.6, 0.9, 5.0)], 1.0)
    split = convex_split(f, 0.3)
    total = lognorm(scale(f, split.n))
    assert sum(lognorm(p) for p in split.pieces) == pytest.approx(total, abs=1e-12)
    for p in split.pieces:
        assert lognorm(p) == pytest.approx(total / split.n, abs=1e-12)
    assert dlog(split.average(), f) <= 1e-15


def test_convex_split_verify():
    f = StepFunction.make([(0.1, 0.4, 2 - 1j), (0.6, 0.9, 5.0)], 1.0)
    split = convex_split(f, 0.3)
    assert split.verify(f)
    assert not split.verify(scale(f, 2))


def test_convex_split_requires_unit_measure():
    with pytest.raises(InvalidParameterError):
        convex_split(StepFunction.make([(0, 1, 1)], 2.0), 0.1)


# ----------------------------------------------------------------- separation

def test_separation_small_k_values():
    s1 = separation_sequence(1)
    assert s1.support_measure == 1.0
    assert s1.lognorm_value == pytest.approx(math.log1p(math.e), abs=1e-12)
    s3 = separation_sequence(3)
    assert s3.support_measure == pytest.approx(1 / 3)
    assert s3.lognorm_value == pytest.approx(3 + math.log1p(math.exp(-9)) / 3,
                                             abs=1e-12)


def test_separation_realization_matches_for_small_k():
    s = separation_sequence(3)
    assert lognorm(s.realize()) == pytest.approx(s.lognorm_value, abs=1e-12)


def test_separation_monotone_trends():
    seq = [separation_sequence(k) for k in range(1, 21)]
    for a, b in zip(seq, seq[1:]):
        assert b.support_measure < a.support_measure
        assert b.lognorm_value > a.lognorm_value
    assert seq[-1].support_measure == pytest.approx(0.05)
    assert seq[-1].lognorm_value == pytest.approx(20.0, abs=1e-12)


def test_separation_no_overflow_at_large_k():
    s = separation_sequence(50)
    assert s.lognorm_value == pytest.approx(50.0)


# --------------------------------------------------------------------- cauchy

def test_cauchy_truncation_sequence():
    base = StepFunction.make([(0, 1, 3.0), (1, 1.5, 100.0)], 2.0)
    seq = [truncate(base, 2.0 ** k) for k in range(0, 10)]
    limit, report = cauchy_limit(seq, 1e-9)
    assert report.is_cauchy
    assert limit == base
    assert report.limit_distance == 0.0


def test_cauchy_alternating_rejected():
    alt = [StepFunction.zero(1.0), ONE] * 3
    _, report = cauchy_limit(alt, 1e-6)
    assert not report.is_cauchy
    assert report.gap == pytest.approx(math.log(2), abs=1e-12)
    assert report.limit_distance is None


def test_cauchy_geometric_sequence_extrapolates():
    seq = [StepFunction.make([(0, 1, 1 - 2.0 ** -k)], 1.0) for k in range(1, 12)]
    limit, report = cauchy_limit(seq, 1e-2)
    assert report.is_cauchy
    assert limit == ONE
    dists = report.distances
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_cauchy_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        cauchy_limit([ONE, StepFunction.zero(2.0)], 1e-6)
