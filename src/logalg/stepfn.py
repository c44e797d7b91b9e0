"""Piecewise-constant model of the log-integrable function space.

Functions are complex-valued step functions on finite unions of intervals
of [0, inf) with Lebesgue measure.  The central functional is

    lognorm(f) = integral of log(1 + |f|),

an F-norm whose induced translation-invariant metric is ``dlog``.
"""
from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainMismatchError, InvalidParameterError, MalformedInputError


@dataclass(frozen=True)
class StepFunction:
    """Canonical step function: disjoint sorted pieces, zero elsewhere.

    ``pieces`` is a tuple of (left, right, value) with left < right and
    value != 0; adjacent pieces with equal values are merged.
    ``total_measure`` is the measure of the ambient space (may be inf).
    """

    pieces: tuple[tuple[float, float, complex], ...]
    total_measure: float = math.inf

    def __post_init__(self):
        """Validate, then canonicalize the sorted nonzero pieces through _computed."""
        try:
            total_measure = float(self.total_measure)
            converted = [(float(l), float(r), complex(v)) for l, r, v in self.pieces]
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"step function data is not numeric: {exc}") from exc
        if not (total_measure > 0):
            raise MalformedInputError("total_measure must be positive")
        for left, right, _ in converted:
            if not (math.isfinite(left) and math.isfinite(right)):
                raise MalformedInputError("piece endpoints must be finite")
            if left < 0 or left >= right:
                raise MalformedInputError(
                    f"piece [{left}, {right}) is not a valid interval in [0, inf)")
            if right > total_measure:
                raise MalformedInputError(
                    f"piece [{left}, {right}) exceeds total_measure {total_measure}")
        items = sorted((p for p in converted if p[2] != 0), key=_LEFT)
        for (_, right, _), (left, _, _) in zip(items, items[1:]):
            if left < right:
                raise MalformedInputError(f"pieces overlap near x = {left}")
        try:
            pieces = _computed(items, total_measure).pieces
        except InvalidParameterError:  # a value of infinite modulus is input, not arithmetic
            raise MalformedInputError("piece values must be finite") from None
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "total_measure", total_measure)

    @staticmethod
    def make(pieces, total_measure=math.inf) -> "StepFunction":  # as MatrixOperator.make
        return StepFunction(pieces, total_measure)

    @staticmethod
    def zero(total_measure: float = math.inf) -> "StepFunction":
        return StepFunction((), total_measure)

    def is_zero(self) -> bool:
        return not self.pieces

    # ------------------------------------------------------------------ json
    def to_json(self) -> dict:
        return {
            "total_measure": "inf" if math.isinf(self.total_measure) else self.total_measure,
            "pieces": [{"l": l, "r": r, "re": v.real, "im": v.imag}
                       for l, r, v in self.pieces],
        }

    @staticmethod
    def from_json(obj: dict) -> "StepFunction":
        try:
            tm = obj["total_measure"]  # "inf" too: the constructor takes float(tm)
            pieces = [(p["l"], p["r"], complex(p["re"], p.get("im", 0.0)))
                      for p in obj["pieces"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"bad StepFunction JSON: {exc}") from exc
        return StepFunction(pieces, tm)


@dataclass(frozen=True)
class SingularStep:
    """Nonincreasing nonnegative step function: tuple of (width, height), zero after it.

    Equal heights are merged and zero heights dropped, as a StepFunction is
    zero off its pieces, so == and hash compare the functions.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        merged: list[list] = []
        prev_h = math.inf
        for width, height in self.steps:
            width = float(width)
            height = float(height)
            if not width > 0:
                raise MalformedInputError("step widths must be positive")
            if not 0 <= height < math.inf:
                raise MalformedInputError("step heights must be finite and nonnegative")
            if height > prev_h:
                raise MalformedInputError("step heights must be nonincreasing")
            prev_h = height
            if height == 0:
                continue
            if merged and merged[-1][1] == height:
                merged[-1][0] += width
            else:
                merged.append([width, height])
        object.__setattr__(self, "steps", tuple((w, h) for w, h in merged))

    def approx_eq(self, other: "SingularStep") -> bool:
        """Equality up to a relative rounding of 1e-13 in the widths and heights.

        Heights coming from an SVD can differ from exact moduli by a few
        ulps, so strict float equality is too brittle for cross-checks.
        """
        a, b = self.steps, other.steps
        if len(a) != len(b):
            return False
        return all(math.isclose(wa, wb, rel_tol=1e-13, abs_tol=0.0)
                   and math.isclose(ha, hb, rel_tol=1e-13, abs_tol=0.0)
                   for (wa, ha), (wb, hb) in zip(a, b))

    def log_integral(self) -> float:
        """Integral of log(1 + height) against width."""
        return _integral((w * math.log1p(h) for w, h in self.steps), self.steps)

    def to_json(self) -> dict:
        return {"steps": [{"w": w, "h": h} for w, h in self.steps]}


# ---------------------------------------------------------------------------
# refinement machinery

def _refine(fns: Sequence[StepFunction]):
    """Merged breakpoint refinement of the supports of fns.

    Yields (left, right, values) for each pair of consecutive endpoints of
    the pieces of fns, values holding each function's value there (0j where
    it vanishes).

    Canonical pieces are sorted and disjoint, so one forward walk per
    function finds its values: at each breakpoint a, its piece index
    advances past the pieces with right <= a, and that piece holds a if its
    left <= a.  For F functions with P pieces in all and B breakpoints this
    costs O(B log B + F (B + P)).
    """
    breaks = sorted({x for fn in fns for l, r, _ in fn.pieces for x in (l, r)})
    columns = []
    for fn in fns:
        pieces, i, column = fn.pieces, 0, []
        for a in breaks[:-1]:
            while i < len(pieces) and pieces[i][1] <= a:
                i += 1
            column.append(pieces[i][2] if i < len(pieces) and pieces[i][0] <= a else 0j)
        columns.append(column)
    for a, b, *values in zip(breaks, breaks[1:], *columns):
        yield a, b, values


def _computed(pieces: list, total_measure: float) -> StepFunction:
    """StepFunction of complex values computed from canonical operands.

    Trusts their sorted, disjoint pieces in [0, total_measure].  Checks each value:
    an inf or NaN value or modulus is arithmetic that overflowed a double, not
    malformed input.  The one canonical form: drops zeros and merges equal
    neighbours, keeping the first value (1+0j == 1-0j).
    """
    merged = []
    for l, r, v in pieces:
        if not math.hypot(v.real, v.imag) < math.inf:
            raise InvalidParameterError("value overflows a double")
        if v != 0:
            if merged and merged[-1][1] == l and merged[-1][2] == v:
                l, _, v = merged.pop()
            merged.append((l, r, v))
    fn = object.__new__(StepFunction)
    object.__setattr__(fn, "pieces", tuple(merged))
    object.__setattr__(fn, "total_measure", total_measure)
    return fn


def _integral(terms, nonzero) -> float:
    """sum(terms): the one sum behind every step-function integral.

    A sum that overflows a double, or a modulus that does (abs() raises), is
    refused.  A nonzero integrand whose sum underflows gets the smallest
    positive double, so that an integral is 0 only for 0; no terms give the
    int 0, as sum() does.
    """
    try:
        total = sum(terms)
    except OverflowError:
        total = math.inf
    if not total < math.inf:
        raise InvalidParameterError("value overflows a double")
    return math.ulp(0.0) if total == 0.0 and nonzero else total


def _check_same_space(f: StepFunction, g: StepFunction) -> None:
    if f.total_measure != g.total_measure:
        raise DomainMismatchError(
            f"total_measure mismatch: {f.total_measure} vs {g.total_measure}")


# ---------------------------------------------------------------------------
# core functionals

def lognorm(f: StepFunction) -> float:
    """F-norm: integral of log(1 + |f|); 0 only for f = 0."""
    return _integral(((r - l) * math.log1p(abs(v)) for l, r, v in f.pieces), f.pieces)


def l1norm(f: StepFunction) -> float:
    return _integral(((r - l) * abs(v) for l, r, v in f.pieces), f.pieces)


_LEFT, _RIGHT = operator.itemgetter(0), operator.itemgetter(1)
_COMBINE = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def pointwise(f: StepFunction, g: StepFunction, op: str) -> StepFunction:
    """Pointwise add/sub/mul on the merged breakpoint refinement."""
    _check_same_space(f, g)
    combine = _COMBINE.get(op)
    if combine is None:
        raise InvalidParameterError(f"unknown pointwise op {op!r}")
    pieces = [(l, r, combine(fv, gv)) for l, r, (fv, gv) in _refine((f, g))]
    return _computed(pieces, f.total_measure)


def dlog(f: StepFunction, g: StepFunction) -> float:
    """Translation invariant metric lognorm(f - g), summed on the refinement where f != g.

    Unlike f - g, it does not merge equal neighbours, so it may differ from
    lognorm(pointwise(f, g, "sub")) by rounding, within 1e-12 relative; dlog(f, f) is 0.
    """
    _check_same_space(f, g)
    return _integral(((r - l) * math.log1p(abs(fv - gv))
                      for l, r, (fv, gv) in _refine((f, g)) if fv != gv), f.pieces != g.pieces)


def scale(f: StepFunction, alpha: complex) -> StepFunction:
    # complex(): a numpy alpha makes numpy products
    return _computed([(l, r, complex(alpha * v)) for l, r, v in f.pieces], f.total_measure)


def restrict(f: StepFunction, a: float, b: float) -> StepFunction:
    """f times the indicator of [a, b).

    The pieces that meet [a, b) are one slice of f's sorted, disjoint pieces,
    found by bisection: O(log P + k) for k kept; only that slice is clipped.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise InvalidParameterError("restrict requires a < b")
    kept = f.pieces[bisect_right(f.pieces, a, key=_RIGHT):bisect_left(f.pieces, b, key=_LEFT)]
    return _computed([(max(l, a), min(r, b), v) for l, r, v in kept], f.total_measure)


def _bisect(below) -> float:
    """Where below(x), true for small x > 0 and false for large x, turns false.

    hi doubles from 1, clamped at the largest double, until below(hi) fails;
    [0, hi] is then bisected down to adjacent doubles.  A below() that still
    holds at the largest double is refused.
    """
    lo, hi = 0.0, 1.0
    while below(hi):
        if hi == sys.float_info.max:
            raise InvalidParameterError("bisection bracket overflows a double")
        hi = min(2 * hi, sys.float_info.max)
    # where lo + hi overflows, each end is halved first
    while lo < (mid := 0.5 * (lo + hi) if lo + hi < math.inf else 0.5 * lo + 0.5 * hi) < hi:
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return mid


def orlicz_fnorm(f: StepFunction) -> float:
    """Orlicz-style F-norm: inf of lambda > 0 with lognorm(f / lambda) <= lambda.

    For f != 0 the map lambda -> lognorm(f / lambda) is strictly decreasing
    and the infimum is the fixed point, bisected down to adjacent doubles.
    """
    if f.is_zero():
        return 0.0
    parts = [(r - l, abs(v)) for l, r, v in f.pieces]
    # where a / lam overflows a double, log1p(a / lam) = log(a) - log(lam) to double precision
    return _bisect(lambda lam: sum(w * (math.log1p(q) if (q := a / lam) < math.inf
                                        else math.log(a) - math.log(lam))
                                   for w, a in parts) > lam)


def truncate(f: StepFunction, M: float) -> StepFunction:
    """Keep f where |f| <= M (ties kept), zero elsewhere."""
    if not M > 0:
        raise InvalidParameterError("truncation level M must be positive")
    return _computed([(l, r, v) for l, r, v in f.pieces if abs(v) <= M], f.total_measure)


def approximate_in_l1(f: StepFunction, eps: float) -> StepFunction:
    """Truncation of f at the smallest M = 2^k (k >= 0) with dlog(f, f_M) < eps."""
    if not eps > 0:
        raise InvalidParameterError("eps must be positive")
    M = 1.0
    while True:
        g = truncate(f, M)
        if dlog(f, g) < eps:
            return g
        M *= 2.0


def decreasing_rearrangement(f: StepFunction) -> SingularStep:
    """Widths and moduli of the pieces of f, sorted by modulus, largest first."""
    parts = sorted(((r - l, abs(v)) for l, r, v in f.pieces),
                   key=lambda wh: -wh[1])
    return SingularStep(parts)
