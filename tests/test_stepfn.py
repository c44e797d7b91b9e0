import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logalg import (DomainMismatchError, InvalidParameterError,
                    MalformedInputError, SingularStep, StepFunction,
                    approximate_in_l1, cauchy_limit, decreasing_rearrangement,
                    dlog, l1norm, lognorm, orlicz_fnorm, pointwise, restrict,
                    scale, stepfn, truncate, witnesses)

E = math.e

# fixed point of lam -> 0.5*log(1 + 3/lam), computed with an independent
# scipy.optimize.brentq oracle (re-checked in test_orlicz_golden_oracle)
ORLICZ_HALF_THREE = 0.786036082289533


def sf(*pieces, total=math.inf):
    return StepFunction.make(pieces, total)


# --------------------------------------------------------------------- shapes

def test_canonical_merges_adjacent_equal_pieces():
    f = sf((0, 1, 2), (1, 2, 2), (3, 4, 2))
    assert f.pieces == ((0.0, 2.0, 2 + 0j), (3.0, 4.0, 2 + 0j))


def test_canonical_drops_zero_pieces():
    assert sf((0, 1, 0), (2, 3, 0)).is_zero()


def test_overlapping_pieces_rejected():
    with pytest.raises(MalformedInputError):
        sf((0, 2, 1), (1, 3, 2))


def test_piece_beyond_total_measure_rejected():
    with pytest.raises(MalformedInputError):
        sf((0, 2, 1), total=1.0)


@pytest.mark.parametrize("piece, message", [
    ((0, math.inf, 1), "piece endpoints must be finite"),
    ((0.5, 0.25, 1), "not a valid interval"),
    ((-0.5, 0.5, 1), "not a valid interval"),
    ((0, 0.5, complex(math.nan, 0)), "piece values must be finite"),
], ids=["inf-endpoint", "reversed", "negative", "nan-value"])
def test_constructor_refuses_a_malformed_piece(piece, message):
    with pytest.raises(MalformedInputError, match=message):
        StepFunction([piece], 1.0)


def test_json_round_trip():
    f = sf((0, 0.5, 1 + 2j), (1, 2, -3), total=4.0)
    assert StepFunction.from_json(f.to_json()) == f
    assert StepFunction.from_json(StepFunction.zero().to_json()).is_zero()


@pytest.mark.parametrize("piece", [("a", 1, 1), (None, 1, 1), (0, 1, 10 ** 400), (0, 1)])
def test_make_refuses_non_numeric_pieces(piece):
    with pytest.raises(MalformedInputError):
        StepFunction.make([piece], 1.0)


def test_from_json_refuses_integer_beyond_double():
    with pytest.raises(MalformedInputError):
        StepFunction.from_json({"total_measure": 1, "pieces": [{"l": 0, "r": 1, "re": 10 ** 400}]})


# -------------------------------------------------------------------- lognorm

def test_lognorm_zero():
    assert lognorm(StepFunction.zero()) == 0.0


def test_lognorm_unit_example():
    assert lognorm(sf((0, 1, E - 1))) == pytest.approx(1.0, abs=1e-15)


def test_lognorm_half_interval():
    assert lognorm(sf((0, 0.5, 3))) == pytest.approx(math.log(2), abs=1e-15)


def test_lognorm_positive_when_integral_underflows():
    # 5e-324 * log(1.5) rounds to 0.0, yet f is not the zero function
    f = sf((0, 5e-324, 0.5), total=1.0)
    assert lognorm(f) > 0
    assert dlog(f, StepFunction.zero(1.0)) > 0
    assert l1norm(f) > 0
    assert decreasing_rearrangement(f).log_integral() > 0


def test_dlog_examples():
    f = sf((0, 1, 1))
    g = sf((0, 1, 3))
    assert dlog(f, f) == 0.0
    assert dlog(f, StepFunction.zero()) == lognorm(f)
    assert dlog(f, g) == pytest.approx(math.log(3), abs=1e-15)


def test_dlog_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        dlog(sf((0, 1, 1), total=1.0), sf((0, 1, 1), total=2.0))


# ------------------------------------------------------------------ pointwise

def test_pointwise_additive_identity():
    f = sf((0, 1, 2 + 1j), total=1.0)
    assert pointwise(f, StepFunction.zero(1.0), "add") == f


def test_pointwise_product_on_refinement():
    f = sf((0, 1, 1))
    g = sf((0, 0.5, 3))
    assert pointwise(f, g, "mul") == sf((0, 0.5, 3))


def test_pointwise_refinement_subtraction():
    f = sf((0, 1, 2))
    g = sf((0.5, 1, 2))
    assert pointwise(f, g, "sub") == sf((0, 0.5, 2))


@pytest.mark.parametrize("f, g, op", [
    (sf((0, 0.5, 1e308), total=1.0), sf((0, 0.5, -1e308), total=1.0), "sub"),
    (sf((0, 0.5, 1e200), total=1.0), sf((0, 0.5, 1e200), total=1.0), "mul"),
])
def test_pointwise_overflow_is_an_invalid_parameter(f, g, op):
    # both operands are well formed; only the computed value leaves the doubles
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        pointwise(f, g, op)


def test_scale_overflow_is_an_invalid_parameter():
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        scale(sf((0, 0.5, 1e308), total=1.0), 2)


@pytest.mark.parametrize("integral", [
    lognorm, l1norm, lambda f: decreasing_rearrangement(f).log_integral(),
    lambda f: dlog(f, StepFunction.zero()),
], ids=["lognorm", "l1norm", "rearrangement", "dlog"])
def test_integral_overflow_is_an_invalid_parameter(integral):
    # every value is finite; only the integral over 1.7e308 leaves the doubles
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        integral(sf((0, 1.7e308, 1e308)))


# --------------------------------------------------------------------- orlicz

def test_orlicz_zero():
    assert orlicz_fnorm(StepFunction.zero()) == 0.0


def test_orlicz_unit_fixed_point():
    assert orlicz_fnorm(sf((0, 1, E - 1))) == pytest.approx(1.0, abs=1e-11)


def test_orlicz_golden_value():
    assert orlicz_fnorm(sf((0, 0.5, 3))) == pytest.approx(ORLICZ_HALF_THREE,
                                                          abs=1e-11)


def test_orlicz_relative_precision_at_tiny_scale():
    # log1p(1e-320 / lam) ~ 1e-320 / lam, so the fixed point is sqrt(1e-320)
    assert orlicz_fnorm(sf((0, 1, 1e-320))) == pytest.approx(1e-160, rel=1e-4, abs=0)


def test_orlicz_where_f_over_lambda_overflows():
    # 1e215 / lam overflows a double; there log1p(1e215 / lam) = log(1e215 / lam)
    lam = orlicz_fnorm(sf((0, 1e-98, 1e215)))
    assert 1e-98 * (math.log(1e215) - math.log(lam)) == pytest.approx(lam, rel=1e-12, abs=0)


def test_orlicz_fixed_point_near_the_largest_double():
    # the bracket doubles past 2^1023 unless it is clamped at the largest double
    lam = orlicz_fnorm(sf((0, 1.7e308, 1e308)))
    assert lam == pytest.approx(1.1e308, rel=1e-3)
    assert 1.7e308 * math.log1p(1e308 / lam) == pytest.approx(lam, rel=1e-12, abs=0)


def test_orlicz_golden_oracle():
    scipy = pytest.importorskip("scipy.optimize")
    root = scipy.brentq(lambda lam: 0.5 * math.log1p(3 / lam) - lam,
                        1e-12, 10, xtol=1e-15)
    assert root == pytest.approx(ORLICZ_HALF_THREE, abs=1e-13)


# ------------------------------------------------------------------- truncate

def test_truncate_below_threshold_is_identity():
    f = sf((0, 1, 3))
    assert truncate(f, 5) == f


def test_truncate_above_threshold_everywhere():
    assert truncate(sf((0, 1, 3)), 2).is_zero()


def test_truncate_piecewise_cutoff():
    f = sf((0, 1, 1), (1, 2, 10))
    assert truncate(f, 5) == sf((0, 1, 1))


def test_truncate_keeps_ties():
    assert truncate(sf((0, 1, 5)), 5) == sf((0, 1, 5))


def test_truncate_invalid_parameter():
    with pytest.raises(InvalidParameterError):
        truncate(sf((0, 1, 1)), 0)


def test_truncation_l1_bound():
    f = sf((0, 1, 0.3), (1, 2, 7))
    M = 8.0
    g = truncate(f, M)
    assert l1norm(g) <= M / math.log1p(M) * lognorm(g) + 1e-12


# ----------------------------------------------------------------- l1 density

def test_l1norm_examples():
    assert l1norm(StepFunction.zero()) == 0.0
    assert l1norm(sf((0, 0.5, 3))) == pytest.approx(1.5)


def test_approximate_in_l1_bounded_function_returned_whole():
    f = sf((0, 1, 3))
    assert approximate_in_l1(f, 0.01) == f


def test_approximate_in_l1_zero():
    assert approximate_in_l1(StepFunction.zero(), 0.1).is_zero()


def test_approximate_in_l1_drops_tall_piece():
    f = sf((0, 1, E - 1), (1, 1.1, math.exp(9) - 1))
    g = approximate_in_l1(f, 1.0)
    assert g == sf((0, 1, E - 1))
    assert dlog(f, g) == pytest.approx(0.9, abs=1e-12)


# -------------------------------------------------------------- rearrangement

def test_rearrangement_sorts_by_modulus():
    f = sf((0, 1, 1), (1, 2, 5))
    assert decreasing_rearrangement(f) == SingularStep([(1, 5), (1, 1)])


def test_rearrangement_zero():
    assert decreasing_rearrangement(StepFunction.zero()).steps == ()


def test_rearrangement_takes_modulus():
    assert decreasing_rearrangement(sf((0, 0.5, -3))) == \
        SingularStep([(0.5, 3)])


# ---------------------------------------------------------------- properties

@st.composite
def step_functions(draw, total=1.0):
    n = draw(st.integers(0, 5))
    endpoints = sorted(draw(st.lists(
        st.floats(0, total, allow_nan=False), min_size=2 * n, max_size=2 * n)))
    pieces = []
    for i in range(n):
        l, r = endpoints[2 * i], endpoints[2 * i + 1]
        if r <= l:
            continue
        v = draw(st.complex_numbers(max_magnitude=50, allow_nan=False,
                                    allow_infinity=False))
        pieces.append((l, r, v))
    return StepFunction.make(pieces, total)


@settings(max_examples=150, deadline=None)
@given(step_functions(), step_functions())
def test_fnorm_axioms(f, g):
    nf, ng = lognorm(f), lognorm(g)
    assert nf >= 0
    assert f.is_zero() or nf > 0
    assert lognorm(scale(f, 0.5j)) <= nf + 1e-12
    assert lognorm(pointwise(f, g, "add")) <= nf + ng + 1e-12
    assert lognorm(scale(f, 2.0 ** -50)) <= 1e-12


NUMERIC_KEYS = ("l", "r", "re", "im")
NOT_NUMBERS = [True, False, "0", "0.5", "1", None]


@settings(max_examples=100, deadline=None)
@given(step_functions(), st.data())
def test_from_json_reads_only_json_numbers(f, data):
    # a bool or a numeric string at any numeric position is refused;
    # total_measure may also be the string "inf"
    doc = f.to_json()
    assert StepFunction.from_json(doc) == f
    assert StepFunction.from_json(dict(doc, total_measure="inf")).total_measure == math.inf
    if doc["pieces"] and data.draw(st.booleans()):
        piece = data.draw(st.sampled_from(doc["pieces"]))
        piece[data.draw(st.sampled_from(NUMERIC_KEYS))] = data.draw(st.sampled_from(NOT_NUMBERS + ["inf"]))
    else:
        doc["total_measure"] = data.draw(st.sampled_from(NOT_NUMBERS))
    with pytest.raises(MalformedInputError, match="bad StepFunction JSON: expected a number"):
        StepFunction.from_json(doc)


@settings(max_examples=150, deadline=None)
@given(step_functions(), step_functions(),
       st.floats(0.01, 20, allow_nan=False))
def test_multiplication_bounds(f, g, K):
    nf, ng = lognorm(f), lognorm(g)
    assert lognorm(scale(f, K)) <= max(K, 1) * nf + 1e-12
    assert lognorm(pointwise(f, g, "mul")) <= nf + ng + 1e-12
    # |g| <= |2g| pointwise
    assert lognorm(pointwise(f, g, "mul")) <= \
        lognorm(pointwise(f, scale(g, 2), "mul")) + 1e-12


@settings(max_examples=100, deadline=None)
@given(step_functions())
def test_lognorm_below_l1norm(f):
    assert lognorm(f) <= l1norm(f) + 1e-12
    # where the plain sum neither overflows nor underflows, lognorm is that sum, bit for bit
    plain = sum((r - l) * math.log1p(abs(v)) for l, r, v in f.pieces)
    if 0 < plain < math.inf:
        assert lognorm(f).hex() == plain.hex()


@settings(max_examples=100, deadline=None)
@given(step_functions())
def test_orlicz_equivalence_small_side(f):
    phi = orlicz_fnorm(f)
    if phi < 1:
        assert lognorm(f) <= phi + 1e-10


@settings(max_examples=100, deadline=None)
@given(step_functions(), st.integers(-300, 300))
def test_orlicz_fixed_point_at_every_scale(f, e):
    # below e = -300, abs() of a subnormal complex value itself loses bits
    f = scale(f, 10.0 ** e)
    lam = orlicz_fnorm(f)
    # lognorm(f / lam) summed in logs, since f / lam and 1 / lam may overflow;
    # the logs cost at most ~1.2e-13 relative
    image = sum((r - l) * np.logaddexp(0.0, math.log(abs(v)) - math.log(lam))
                for l, r, v in f.pieces)
    # a subnormal lam has too few bits for 1e-12 relative: allow 16 of its ulps
    assert abs(image - lam) <= 1e-12 * lam + 16 * math.ulp(0.0)


@settings(max_examples=100, deadline=None)
@given(step_functions())
def test_truncation_distance_nonincreasing_and_vanishing(f):
    prev = math.inf
    for M in (0.25, 1.0, 4.0, 16.0, 2.0 ** 40):
        d = dlog(f, truncate(f, M))
        assert d <= prev + 1e-12
        prev = d
    assert prev == 0.0


@settings(max_examples=100, deadline=None)
@given(step_functions())
def test_rearrangement_preserves_lognorm(f):
    assert decreasing_rearrangement(f).log_integral() == \
        pytest.approx(lognorm(f), abs=1e-12)


def test_multiplication_continuity_along_truncation(rng):
    from conftest import make_random_step
    f = make_random_step(rng, max_scale=30.0)
    g = make_random_step(rng, max_scale=30.0)
    fg = pointwise(f, g, "mul")
    dists = []
    for k in range(0, 12):
        fn = truncate(f, 2.0 ** k)
        gn = truncate(g, 2.0 ** k)
        dists.append(dlog(pointwise(fn, gn, "mul"), fg))
    # eventually-monotone decay to zero
    assert dists[-1] == 0.0
    tail = dists[4:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


# ------------------------------------------------------------ refinement oracle

def _refine_by_scan(fns):
    """The quadratic refinement: every piece of every function scanned at every breakpoint."""
    breaks = sorted({x for fn in fns for l, r, _ in fn.pieces for x in (l, r)})

    def value_at(fn, left):
        for l, r, v in fn.pieces:
            if l <= left < r:
                return v
        return 0j

    for a, b in zip(breaks, breaks[1:]):
        yield a, b, [value_at(fn, a) for fn in fns]


@st.composite
def grid_step_functions(draw, cells=8, values=(0, 1, -1, 2j, 0.5)):
    """Pieces on a grid of [0, 1), eighths by default: they touch, share endpoints, or vanish."""
    n = draw(st.integers(0, 4))
    endpoints = sorted(draw(st.lists(st.integers(0, cells), min_size=2 * n, max_size=2 * n)))
    values = st.sampled_from(values)
    return StepFunction.make([(endpoints[2 * i] / cells, endpoints[2 * i + 1] / cells, draw(values))
                              for i in range(n) if endpoints[2 * i] < endpoints[2 * i + 1]],
                             1.0)


@settings(max_examples=120, deadline=None)
@given(st.lists(step_functions() | grid_step_functions(), min_size=1, max_size=9))
def test_refine_matches_the_scan(fns):
    assert list(stepfn._refine(fns)) == list(_refine_by_scan(fns))


def _pieces_400(rng):
    cuts = np.sort(rng.uniform(0.0, 1.0, 800))
    values = rng.normal(0, 10, 400) + 1j * rng.normal(0, 10, 400)
    return StepFunction.make(zip(cuts[0::2], cuts[1::2], values), 1.0)


def test_refinement_callers_match_the_scan(monkeypatch):
    rng = np.random.default_rng(400)
    f, g = _pieces_400(rng), _pieces_400(rng)
    seq = [truncate(f, 2.0 ** k) for k in range(9)]

    def outputs():
        return ([pointwise(f, g, op) for op in ("add", "sub", "mul")],
                dlog(f, g), cauchy_limit(seq, 1e-9))

    walked = outputs()
    monkeypatch.setattr(stepfn, "_refine", _refine_by_scan)
    monkeypatch.setattr(witnesses, "_refine", _refine_by_scan)
    assert walked == outputs()


# ------------------------------------------------------------ kernel references

# Neighbouring differences of two such functions often coincide, so f - g
# merges intervals that the fused dlog sums one by one; tenths are not
# dyadic, so the merged widths round differently from their parts.
FEW_VALUED = grid_step_functions(cells=10, values=(0, 1, -1, 2j, 0.5, 1.5))


@settings(max_examples=300, deadline=None)
@given(FEW_VALUED | grid_step_functions(), FEW_VALUED | grid_step_functions())
# f - g = 1 on [0, 0.1) and [0.1, 0.3): 0.3 log 2 against 0.1 log 2 + (0.3 - 0.1) log 2
@example(sf((0, 0.1, 1), (0.1, 0.3, 2), total=1.0), sf((0.1, 0.3, 1), total=1.0))
def test_fused_dlog_matches_the_built_difference(f, g):
    d = dlog(f, g)
    assert math.isclose(d, lognorm(pointwise(f, g, "sub")), rel_tol=1e-12, abs_tol=0.0)
    if f == g:
        assert d == 0 and type(d) is int   # as lognorm of the zero function
    else:
        assert d > 0
    # an exact limit is at distance exactly 0
    _, report = cauchy_limit([g, f, f], 1.0)
    assert report.limit_distance == 0 and type(report.limit_distance) is int


def _restrict_by_clip(f, a, b):
    """The linear restrict: every piece clipped, the result built by the constructor."""
    clipped = [(max(l, a), min(r, b), v) for l, r, v in f.pieces]
    return StepFunction.make([(lo, hi, v) for lo, hi, v in clipped if lo < hi], f.total_measure)


@settings(max_examples=200, deadline=None)
@given(step_functions() | grid_step_functions(), st.data())
def test_restrict_matches_the_linear_clip(f, data):
    ends = [x for l, r, _ in f.pieces for x in (l, r)] + [0.0, 1.0]
    point = st.sampled_from(ends) | st.floats(-0.5, 1.5, allow_nan=False)
    a, b = sorted((data.draw(point), data.draw(point)))
    if a == b:
        with pytest.raises(InvalidParameterError):
            restrict(f, a, b)
        return
    assert repr(restrict(f, a, b)) == repr(_restrict_by_clip(f, a, b))


def test_restrict_refuses_nan_bounds():
    with pytest.raises(InvalidParameterError):
        restrict(sf((0, 1, 1), total=1.0), math.nan, 0.5)


def _canonical(pieces):
    """The reference canonical form: sorted, zeros dropped, equal neighbours
    merged into the first one's value."""
    out = []
    for l, r, v in sorted((p for p in pieces if p[2] != 0), key=lambda p: p[0]):
        if out and out[-1][1] == l and out[-1][2] == v:
            out[-1] = (out[-1][0], r, out[-1][2])
        else:
            out.append((l, r, v))
    return tuple(out)


HUGE = grid_step_functions(values=(0, 1, -1, 2j, 1e308, -1e308, 1e308j, 6e307 + 6e307j))


@settings(max_examples=200, deadline=None)
@given(HUGE, HUGE, st.sampled_from(["add", "sub", "mul"]))
# (-1+0j) * (-1+0j) is 1-0j: equal to its neighbour 1+0j, but printed differently
@example(StepFunction([(0.0, 0.25, 1), (0.25, 0.375, -1)], 1.0),
         StepFunction([(0.0, 0.25, 1), (0.25, 0.375, -1)], 1.0), "mul")
def test_computed_and_the_constructor_match_the_reference(f, g, op):
    # the pieces pointwise hands over: sorted, disjoint, with zeros, equal
    # neighbours and values that overflow a double; the constructor gets them reversed
    combine = stepfn._COMBINE[op]
    pieces = [(l, r, combine(fv, gv)) for l, r, (fv, gv) in stepfn._refine((f, g))]
    if any(not math.hypot(v.real, v.imag) < math.inf for _, _, v in pieces):
        with pytest.raises(InvalidParameterError, match="overflows a double"):
            stepfn._computed(pieces, 1.0)
        with pytest.raises(MalformedInputError, match="piece values must be finite"):
            StepFunction(pieces[::-1], 1.0)
    else:
        want = repr(_canonical(pieces))
        assert repr(stepfn._computed(pieces, 1.0).pieces) == want
        assert repr(StepFunction(pieces[::-1], 1.0).pieces) == want


def test_scale_by_a_numpy_scalar_keeps_python_complex_values():
    f = scale(sf((0, 0.5, 1 + 2j), total=1.0), np.complex128(0.5 - 1j))
    assert type(f.pieces[0][2]) is complex
    assert f == sf((0, 0.5, complex(np.complex128(0.5 - 1j) * (1 + 2j))), total=1.0)
