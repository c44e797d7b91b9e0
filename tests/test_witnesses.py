import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logalg import (DomainMismatchError, InvalidParameterError, StepFunction,
                    cauchy_limit, convex_split, dlog, lognorm, pointwise, restrict,
                    scale, separation_sequence, truncate, unboundedness_witness)
from conftest import make_random_step
from test_stepfn import _restrict_by_clip, grid_step_functions, step_functions

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


def test_unboundedness_refuses_an_N_whose_K_overflows():
    # K is the least power of two above about N^2: 2^1023 at N = 2^511, and
    # from N near 2^511.5 on it would double to inf and never pass its test
    w = unboundedness_witness(1.0, 2 ** 511)
    assert w.K == 2.0 ** 1023 and w.verify()
    for N in (2 ** 511 + 1, 3 * 2 ** 510, 2 ** 512, 10 ** 400):
        with pytest.raises(InvalidParameterError, match=r"N must be at most 2\^511"):
            unboundedness_witness(1.0, N)


def test_unboundedness_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        unboundedness_witness(0.0, 2)
    with pytest.raises(InvalidParameterError):
        unboundedness_witness(1.0, 0)
    with pytest.raises(InvalidParameterError):
        unboundedness_witness(math.inf, 2)


# --------------------------------------------------------------- convex split

def test_convex_split_zero_function():
    split = convex_split(StepFunction.zero(1.0), 0.5)
    assert split.n == 1
    assert folded_average(split).is_zero()


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
    assert dlog(folded_average(split), ONE) == 0.0


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
    assert dlog(folded_average(split), f) <= 1e-15


def folded_average(split):
    """Reference mean of the slices: one pointwise addition per slice."""
    acc = StepFunction.zero(1.0)
    for p in split.pieces:
        acc = pointwise(acc, p, "add")
    return scale(acc, 1.0 / split.n)


def test_convex_split_average_equals_the_folded_sum(rng):
    draws = [(ONE, 0.1), (StepFunction.make([(0.1, 0.4, 2 - 1j), (0.6, 0.9, 5.0)], 1.0), 0.3)]
    draws += [(make_random_step(rng, max_pieces=20), eps) for eps in (0.2, 0.05) for _ in range(10)]
    for f, eps in draws:
        assert convex_split(f, eps).verify()


def test_convex_split_breakpoints_do_not_drift():
    # each breakpoint comes from the whole-piece sums, not from the previous
    # rounded breakpoint, so the norms stay equal over thousands of pieces
    f = StepFunction.make([(0, 0.5, 2.0)], 1.0)
    split = convex_split(f, 1e-3)
    assert split.n == 4560
    target = lognorm(scale(f, split.n)) / split.n
    assert all(abs(lognorm(p) - target) <= 1e-14 for p in split.pieces)


def test_convex_split_minimal_n_over_thousands_of_slices():
    split = convex_split(StepFunction.make([(0, 0.5, 2.0)], 1.0), 1e-4)
    assert split.n == 58_336


def test_convex_split_refuses_a_split_too_large():
    # eps = 1e-300 needs about 1e302 slices
    with pytest.raises(InvalidParameterError, match="slices"):
        convex_split(ONE, 1e-300)


def test_convex_split_refuses_slices_beyond_the_doubles():
    # n f for n = 2 already overflows a double
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        convex_split(StepFunction.make([(0, 0.5, 1e308)], 1.0), 0.1)


def test_convex_split_refuses_a_modulus_beyond_the_doubles():
    # 2 f has finite parts, but abs() of them raises OverflowError
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        convex_split(StepFunction.make([(0, 0.5, 6e307 + 6e307j)], 1.0), 0.1)


def test_convex_split_refuses_slices_narrower_than_a_double():
    # the slices of a piece 1e-15 wide at 0.5 are narrower than the spacing
    # of the doubles there, so neighbouring breakpoints coincide
    f = StepFunction.make([(0.5, 0.5 + 1e-15, 1e300)], 1.0)
    with pytest.raises(InvalidParameterError,
                       match=r"eps = 1e-14 needs slices narrower than a double resolves"):
        convex_split(f, 1e-14)


@settings(max_examples=100, deadline=None)
@given(step_functions() | grid_step_functions(), st.sampled_from([0.5, 0.1, 0.03]))
def test_convex_split_matches_the_references(f, eps):
    split = convex_split(f, eps)
    n = split.n

    def ratio(m):
        return lognorm(scale(f, m)) / m

    assert ratio(n) < eps and (n == 1 or ratio(n - 1) >= eps)
    nf = scale(f, n)
    want = tuple(_restrict_by_clip(nf, a, b) if not nf.is_zero() else nf
                 for a, b in zip(split.breakpoints, split.breakpoints[1:]))
    assert repr(split.pieces) == repr(want)
    assert split.verify()


def test_convex_split_verify():
    f = StepFunction.make([(0.1, 0.4, 2 - 1j), (0.6, 0.9, 5.0)], 1.0)
    split = convex_split(f, 0.3)
    assert split.verify()
    assert not dataclasses.replace(split, f=scale(f, 2)).verify()
    # n = 7 slices; the fourth spans the gap between f's pieces, so it has two
    pieces, (a, b, c) = split.pieces, split.breakpoints[:3]
    assert split.n == 7 and len(pieces[3].pieces) == 2
    nf, moved = scale(f, 7), (b + c) / 2
    # eps at or below the slices' norm (the largest one lies a few ulps above the
    # bisection's lognorm(n f)/n), and eps so large that 6 slices would do
    for eps in (max(lognorm(p) for p in pieces), lognorm(nf) / 7, lognorm(nf) / 8,
                lognorm(scale(f, 6)) / 6 * (1 + 1e-9)):
        assert not dataclasses.replace(split, eps=eps).verify()
    for slices in [
        # one slice scaled by 1 + 1e-9
        pieces[:3] + (scale(pieces[3], 1 + 1e-9),) + pieces[4:],
        # one slice missing a piece
        pieces[:3] + (StepFunction(pieces[3].pieces[1:], 1.0),) + pieces[4:],
        # two slices swapped
        (pieces[1], pieces[0]) + pieces[2:],
        # a breakpoint moved: the slices still join to n f, but their norms differ
        (restrict(nf, a, moved), restrict(nf, moved, c)) + pieces[2:],
    ]:
        assert not dataclasses.replace(split, pieces=slices).verify()


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
    assert separation_sequence(2 ** 16).lognorm_value == 2 ** 16  # the largest k allowed


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


def test_cauchy_limit_overflow_is_an_invalid_parameter():
    # the geometric extrapolation with ratio 1 - 2^-40 leaves the doubles
    seq = [StepFunction.make([(0, 1e-300, v)], 1.0)
           for v in (1e297, 2e297, 2e297 + 1e297 * (1 - 2.0 ** -40))]
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        cauchy_limit(seq, 1e-9)


def test_cauchy_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        cauchy_limit([ONE, StepFunction.zero(2.0)], 1e-6)
