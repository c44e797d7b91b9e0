"""Executable constructions behind the negative results and limit arguments.

Each construction returns a small record holding its parameters together
with the verification numbers, and re-checks its own defining inequalities
with independent norm evaluations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainMismatchError, InvalidParameterError
from .stepfn import StepFunction, _computed, _integral, _refine, dlog, lognorm, restrict, scale

_MAX_SLICES = 1 << 22   # convex_split slices at most: about 1 GB at some 250 bytes each
_MAX_N = 1 << 511       # unboundedness_witness's N at most: its K, about N^2, stays finite
_MAX_SEPARATION_K = 1 << 16  # separation k at most: 8 MB at some 125 bytes of JSON a term


@dataclass(frozen=True)
class UnboundednessWitness:
    """f = K on a set of measure eta lies in V_eps but outside N * V_{eps/2}."""

    eps: float
    N: int
    K: float
    eta: float
    norm_f: float
    norm_f_over_N: float

    def verify(self) -> bool:
        return self._valid

    @cached_property
    def _valid(self) -> bool:
        f = StepFunction([(0.0, self.eta, self.K)])
        ok_small = lognorm(f) < self.eps
        ok_large = lognorm(scale(f, 1.0 / self.N)) >= self.eps / 2
        return ok_small and ok_large

    def to_json(self) -> dict:
        return {"eps": self.eps, "N": self.N, "K": self.K, "eta": self.eta,
                "norm_f": self.norm_f, "norm_f_over_N": self.norm_f_over_N,
                "valid": self.verify()}


def unboundedness_witness(eps: float, N: int) -> UnboundednessWitness:
    """Deterministic choice of K and eta showing no norm ball is bounded.

    K doubles from 1 until 2 log(1 + K/N) > log(1 + K); eta is the midpoint
    of the admissible interval, so that eta log(1 + K) < eps while
    eta log(1 + K/N) >= eps/2.  That K is the least power of two above
    about N^2, at most 2^1023 for N <= 2^511; from N near 2^511.5 on
    it would double to inf, so larger N are refused.
    """
    if not eps > 0:
        raise InvalidParameterError("eps must be positive")
    if eps == math.inf:
        raise InvalidParameterError("eps must be finite")
    if N < 1:
        raise InvalidParameterError("N must be a positive integer")
    if N > _MAX_N:
        raise InvalidParameterError("N must be at most 2^511: K, about N^2, would overflow")
    K = 1.0
    while True:
        K *= 2.0
        if 2.0 * math.log1p(K / N) > math.log1p(K):
            break
    lo = eps / (2.0 * math.log1p(K / N))
    hi = eps / math.log1p(K)
    eta = 0.5 * (lo + hi)
    return UnboundednessWitness(
        eps=eps, N=N, K=K, eta=eta,
        norm_f=eta * math.log1p(K),
        norm_f_over_N=eta * math.log1p(K / N),
    )


def _too_coarse(parts, n: int, eps: float) -> bool:
    """lognorm(n f) / n >= eps for parts [(width, value)] of f, without building n f."""
    # n * v is scale's product
    return _integral((w * math.log1p(abs(n * v)) for w, v in parts), parts) / n >= eps


@dataclass(frozen=True)
class ConvexSplit:
    """f as the average of n pieces of n*f, each of small log F-norm."""

    f: StepFunction
    eps: float
    n: int
    breakpoints: tuple
    pieces: tuple  # of StepFunction

    def verify(self) -> bool:
        """n is minimal with lognorm(n f)/n < eps, the pieces join to n f, and each
        has norm lognorm(n f)/n and below eps."""
        parts = [(r - l, v) for l, r, v in self.f.pieces]
        minimal = not _too_coarse(parts, self.n, self.eps) and (
            self.n == 1 or _too_coarse(parts, self.n - 1, self.eps))
        nf = scale(self.f, self.n)
        # _computed trusts their order: pieces out of order join to something other than n f
        joined = _computed([q for p in self.pieces for q in p.pieces], self.pieces[0].total_measure)
        target = lognorm(nf) / self.n
        return minimal and joined == nf and all(
            abs(q - target) < 1e-12 and q < self.eps for q in self.piece_norms)

    @cached_property
    def piece_norms(self) -> tuple:
        return tuple(lognorm(p) for p in self.pieces)

    def to_json(self) -> dict:
        return {"n": self.n, "breakpoints": list(self.breakpoints), "piece_norms": list(self.piece_norms)}


def convex_split(f: StepFunction, eps: float) -> ConvexSplit:
    """Split f on [0, 1) into n equal-norm slices of n*f, each below eps.

    n is minimal with lognorm(n f)/n < eps; the breakpoints invert the
    piecewise-linear cumulative integral of log(1 + n|f|) at equal
    increments, taking the leftmost admissible point on plateaus.
    """
    if not eps > 0:
        raise InvalidParameterError("eps must be positive")
    if f.total_measure != 1:
        raise InvalidParameterError("convex_split requires total_measure 1")

    parts = [(r - l, v) for l, r, v in f.pieces]
    # lognorm(n f) / n decreases in n, as log(1 + t) / t does: double hi
    # until it passes, then bisect (lo, hi] down to the first n that passes
    lo, hi = 0, 1
    while _too_coarse(parts, hi, eps):
        if hi >= _MAX_SLICES:
            raise InvalidParameterError(
                f"eps = {eps!r} needs more than {_MAX_SLICES} slices, "
                "the most a split may hold in memory")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _too_coarse(parts, mid, eps) else (lo, mid)
    n = hi

    nf = scale(f, n)
    total = lognorm(nf)

    # invert the cumulative integral of log(1 + n|f|) at total j/n; gaps add
    # nothing, and with <= a target met at a piece's right end stays there
    breakpoints, cum, j = [0.0], 0.0, 1
    for l, r, v in nf.pieces:
        rate = math.log1p(abs(v))
        gain = rate * (r - l)
        while j < n and (target := total * j / n) <= cum + gain:
            breakpoints.append(l + (target - cum) / rate)
            j += 1
        cum += gain
    breakpoints.append(1.0)
    if any(b <= a for a, b in zip(breakpoints, breakpoints[1:])):
        raise InvalidParameterError(f"eps = {eps!r} needs slices narrower than a double resolves")

    pieces = tuple(restrict(nf, a, b) for a, b in zip(breakpoints, breakpoints[1:]))
    return ConvexSplit(f=f, eps=eps, n=n, breakpoints=tuple(breakpoints), pieces=pieces)


@dataclass(frozen=True)
class SeparationSequence:
    """f_k = exp(k^2) on [0, 1/k): vanishing support, exploding log F-norm."""

    k: int
    support_measure: float
    lognorm_value: float
    dominant_term: float
    correction: float

    def realize(self) -> StepFunction:
        # only valid when exp(k^2) fits in a double; the norms themselves
        # are always computed in the stable form k + log1p(exp(-k^2))/k
        return StepFunction([(0.0, 1.0 / self.k, math.exp(self.k ** 2))],
                            total_measure=1.0)

    def to_json(self) -> dict:
        return {"k": self.k, "support_measure": self.support_measure,
                "lognorm_value": self.lognorm_value,
                "dominant_term": self.dominant_term,
                "correction": self.correction}


def separation_sequence(k: int) -> SeparationSequence:
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    if k > _MAX_SEPARATION_K:
        raise InvalidParameterError(f"k must be at most {_MAX_SEPARATION_K}")
    correction = math.log1p(math.exp(-float(k) ** 2)) / k
    return SeparationSequence(
        k=k,
        support_measure=1.0 / k,
        lognorm_value=k + correction,
        dominant_term=float(k),
        correction=correction,
    )


@dataclass(frozen=True)
class CauchyReport:
    distances: tuple
    is_cauchy: bool
    gap: float                 # last successive distance when not Cauchy
    limit: StepFunction        # the extracted limit; the last term if not Cauchy
    limit_distance: float | None  # dlog from the last term to the limit; None if not Cauchy

    def to_json(self) -> dict:
        return {"is_cauchy": self.is_cauchy, "distances": list(self.distances),
                "gap": self.gap, "limit": self.limit.to_json(),
                "limit_distance": self.limit_distance}


def _piecewise_limit(seq: list[StepFunction]) -> StepFunction:
    """Value-wise limit over the merged refinement of the whole sequence.

    Stabilized values are taken as-is; otherwise a geometric (Aitken)
    extrapolation of the last three values is used, which is exact for
    the truncation- and geometric-type sequences this targets.
    """
    pieces = []
    for a, b, values in _refine(seq):
        v = values[-1]
        if len(values) >= 3:
            d1 = values[-1] - values[-2]
            d2 = values[-2] - values[-3]
            if d1 != 0 and d2 != 0:
                rho = d1 / d2
                if abs(rho) < 1:
                    v = values[-1] + d1 * rho / (1 - rho)
        if v != 0:
            pieces.append((a, b, v))
    return _computed(pieces, seq[0].total_measure)


def cauchy_limit(seq, tol: float):
    """Classify a finite sequence as Cauchy-or-not and extract its limit.

    The sequence is declared Cauchy when some tail of successive dlog
    distances sums below tol; the limit is then the value-wise limit on
    the merged refinement.  Otherwise the last successive distance is
    reported as the violating gap.
    """
    seq = list(seq)
    if len(seq) < 2:
        raise InvalidParameterError("need at least two sequence members")
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    tm = seq[0].total_measure
    for f in seq[1:]:
        if f.total_measure != tm:
            raise DomainMismatchError("sequence members live over different spaces")

    distances = [dlog(a, b) for a, b in zip(seq, seq[1:])]
    is_cauchy = any(sum(distances[j:]) < tol for j in range(len(distances)))
    if not is_cauchy:
        return seq[-1], CauchyReport(tuple(distances), False, distances[-1], seq[-1], None)
    limit = _piecewise_limit(seq)
    return limit, CauchyReport(tuple(distances), True, 0.0, limit, dlog(seq[-1], limit))
