"""Piecewise-constant model of the log-integrable function space.

Functions are complex-valued step functions on finite unions of intervals
of [0, inf) with Lebesgue measure.  The central functional is

    lognorm(f) = integral of log(1 + |f|),

an F-norm whose induced translation-invariant metric is ``dlog``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainMismatchError, InvalidParameterError, MalformedInputError


@dataclass(frozen=True)
class StepFunction:
    """Canonical step function: disjoint sorted pieces, zero elsewhere.

    ``pieces`` is a tuple of (left, right, value) with left < right and
    value != 0; adjacent pieces with equal values are merged.
    ``total_measure`` is the measure of the ambient space (may be inf).
    """

    pieces: tuple[tuple[float, float, complex], ...]
    total_measure: float

    @staticmethod
    def make(pieces: Iterable[tuple[float, float, complex]],
             total_measure: float = math.inf) -> "StepFunction":
        """Validate, canonicalize and build a StepFunction."""
        if not (total_measure > 0):
            raise MalformedInputError("total_measure must be positive")
        items = []
        for left, right, value in pieces:
            left = float(left)
            right = float(right)
            value = complex(value)
            if not (math.isfinite(left) and math.isfinite(right)):
                raise MalformedInputError("piece endpoints must be finite")
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise MalformedInputError("piece values must be finite")
            if left < 0 or left >= right:
                raise MalformedInputError(
                    f"piece [{left}, {right}) is not a valid interval in [0, inf)")
            if right > total_measure:
                raise MalformedInputError(
                    f"piece [{left}, {right}) exceeds total_measure {total_measure}")
            if value != 0:
                items.append((left, right, value))
        items.sort(key=lambda p: p[0])
        merged: list[list] = []
        for left, right, value in items:
            if merged and left < merged[-1][1]:
                raise MalformedInputError(
                    f"pieces overlap near x = {left}")
            if merged and left == merged[-1][1] and value == merged[-1][2]:
                merged[-1][1] = right
            else:
                merged.append([left, right, value])
        return StepFunction(tuple((l, r, v) for l, r, v in merged), float(total_measure))

    @staticmethod
    def zero(total_measure: float = math.inf) -> "StepFunction":
        return StepFunction((), float(total_measure))

    def support_measure(self) -> float:
        return sum(r - l for l, r, _ in self.pieces)

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
            tm = obj["total_measure"]
            tm = math.inf if tm == "inf" else float(tm)
            pieces = [(p["l"], p["r"], complex(p["re"], p.get("im", 0.0)))
                      for p in obj["pieces"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"bad StepFunction JSON: {exc}") from exc
        return StepFunction.make(pieces, tm)


@dataclass(frozen=True)
class SingularStep:
    """Nonincreasing nonnegative step function: tuple of (width, height).

    Heights are merged when equal; trailing zero-height steps are kept if
    given (matrix singular value lists carry them) but ignored by equality.
    """

    steps: tuple[tuple[float, float], ...]

    @staticmethod
    def make(steps: Iterable[tuple[float, float]]) -> "SingularStep":
        merged: list[list] = []
        prev_h = math.inf
        for width, height in steps:
            width = float(width)
            height = float(height)
            if width <= 0:
                raise MalformedInputError("step widths must be positive")
            if height < 0:
                raise MalformedInputError("step heights must be nonnegative")
            if height > prev_h:
                raise MalformedInputError("step heights must be nonincreasing")
            if merged and merged[-1][1] == height:
                merged[-1][0] += width
            else:
                merged.append([width, height])
            prev_h = height
        return SingularStep(tuple((w, h) for w, h in merged))

    def stripped(self) -> tuple[tuple[float, float], ...]:
        """Steps with zero heights removed (the support part)."""
        return tuple((w, h) for w, h in self.steps if h > 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SingularStep):
            return NotImplemented
        return self.stripped() == other.stripped()

    def __hash__(self):
        return hash(self.stripped())

    def total_width(self) -> float:
        return sum(w for w, _ in self.steps)

    def approx_eq(self, other: "SingularStep", rtol: float = 1e-13) -> bool:
        """Equality of support parts up to relative rounding in the heights.

        Heights coming from an SVD can differ from exact moduli by a few
        ulps, so strict float equality is too brittle for cross-checks.
        """
        a, b = self.stripped(), other.stripped()
        if len(a) != len(b):
            return False
        return all(math.isclose(wa, wb, rel_tol=rtol, abs_tol=0.0)
                   and math.isclose(ha, hb, rel_tol=rtol, abs_tol=0.0)
                   for (wa, ha), (wb, hb) in zip(a, b))

    def log_integral(self) -> float:
        """Integral of log(1 + height) against width."""
        return sum(w * math.log1p(h) for w, h in self.steps)

    def to_json(self) -> dict:
        return {"steps": [{"w": w, "h": h} for w, h in self.steps]}


# ---------------------------------------------------------------------------
# refinement machinery

def _refine(fns: Sequence[StepFunction]):
    """Merged breakpoint refinement of the supports of fns.

    Yields (left, right, values) over every interval where at least one
    function is nonzero, values holding each function's value there.
    """
    breaks = sorted({x for fn in fns for l, r, _ in fn.pieces for x in (l, r)})

    def value_at(fn: StepFunction, left: float) -> complex:
        for l, r, v in fn.pieces:
            if l <= left < r:
                return v
        return 0j

    for a, b in zip(breaks, breaks[1:]):
        yield a, b, [value_at(fn, a) for fn in fns]


def _check_same_space(f: StepFunction, g: StepFunction) -> None:
    if f.total_measure != g.total_measure:
        raise DomainMismatchError(
            f"total_measure mismatch: {f.total_measure} vs {g.total_measure}")


# ---------------------------------------------------------------------------
# core functionals

def lognorm(f: StepFunction) -> float:
    """F-norm: integral of log(1 + |f|).

    A nonzero f whose integral underflows gets the smallest positive
    double, so that lognorm(f) = 0 only for f = 0.
    """
    total = sum((r - l) * math.log1p(abs(v)) for l, r, v in f.pieces)
    return math.ulp(0.0) if total == 0.0 and f.pieces else total


def l1norm(f: StepFunction) -> float:
    return sum((r - l) * abs(v) for l, r, v in f.pieces)


_COMBINE = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def pointwise(f: StepFunction, g: StepFunction, op: str) -> StepFunction:
    """Pointwise add/sub/mul on the merged breakpoint refinement."""
    _check_same_space(f, g)
    combine = _COMBINE.get(op)
    if combine is None:
        raise InvalidParameterError(f"unknown pointwise op {op!r}")
    pieces = [(l, r, combine(fv, gv)) for l, r, (fv, gv) in _refine((f, g))]
    return StepFunction.make(pieces, f.total_measure)


def dlog(f: StepFunction, g: StepFunction) -> float:
    """Translation invariant metric lognorm(f - g)."""
    return lognorm(pointwise(f, g, "sub"))


def scale(f: StepFunction, alpha: complex) -> StepFunction:
    return StepFunction.make([(l, r, alpha * v) for l, r, v in f.pieces],
                             f.total_measure)


def restrict(f: StepFunction, a: float, b: float) -> StepFunction:
    """f times the indicator of [a, b)."""
    if b <= a:
        raise InvalidParameterError("restrict requires a < b")
    pieces = []
    for l, r, v in f.pieces:
        lo, hi = max(l, a), min(r, b)
        if lo < hi:
            pieces.append((lo, hi, v))
    return StepFunction.make(pieces, f.total_measure)


def _bisect(below) -> float:
    """Where below(x), true for small x > 0 and false for large x, turns false.

    hi doubles from 1 until below(hi) fails; [0, hi] is then bisected down
    to adjacent doubles.
    """
    lo, hi = 0.0, 1.0
    while below(hi):
        hi *= 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
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
    return StepFunction.make([(l, r, v) for l, r, v in f.pieces if abs(v) <= M],
                             f.total_measure)


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
    return SingularStep.make(parts)
