"""Executable constructions behind the negative results and limit arguments.

Each construction returns a small record holding its parameters together
with the verification numbers, and re-checks its own defining inequalities
with independent norm evaluations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainMismatchError, InvalidParameterError
from .stepfn import (StepFunction, _refine, dlog, lognorm, pointwise, restrict,
                     scale)


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
        f = StepFunction.make([(0.0, self.eta, self.K)])
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
    eta log(1 + K/N) >= eps/2.
    """
    if not eps > 0:
        raise InvalidParameterError("eps must be positive")
    if N < 1:
        raise InvalidParameterError("N must be a positive integer")
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


@dataclass(frozen=True)
class ConvexSplit:
    """f as the average of n pieces of n*f, each of small log F-norm."""

    n: int
    breakpoints: tuple
    pieces: tuple  # of StepFunction

    def average(self) -> StepFunction:
        acc = StepFunction.zero(self.pieces[0].total_measure)
        for p in self.pieces:
            acc = pointwise(acc, p, "add")
        return scale(acc, 1.0 / self.n)

    def verify(self, f: StepFunction) -> bool:
        """Re-check against f: every piece has norm lognorm(n f)/n and they average to f."""
        target = lognorm(scale(f, self.n)) / self.n
        return all(abs(lognorm(p) - target) < 1e-12 for p in self.pieces) \
            and dlog(self.average(), f) < 1e-12

    def to_json(self) -> dict:
        return {"n": self.n, "breakpoints": list(self.breakpoints),
                "piece_norms": [lognorm(p) for p in self.pieces]}


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
    if any(r > 1 for _, r, _ in f.pieces):
        raise InvalidParameterError("convex_split requires support in [0, 1)")

    n = 1
    while lognorm(scale(f, n)) / n >= eps:
        n += 1

    nf = scale(f, n)
    total = lognorm(nf)

    # walk the cumulative integral of log(1 + n|f|); gaps have slope zero
    segments = []  # (left, right, rate)
    x = 0.0
    for l, r, v in nf.pieces:
        if l > x:
            segments.append((x, l, 0.0))
        segments.append((l, r, math.log1p(abs(v))))
        x = r
    if x < 1.0:
        segments.append((x, 1.0, 0.0))

    breakpoints = [0.0]
    cum = 0.0
    seg = iter(segments)
    left, right, rate = next(seg)
    for j in range(1, n):
        target = total * j / n
        while True:
            seg_gain = rate * (right - left)
            if cum + seg_gain >= target and (rate > 0 or cum >= target):
                break
            cum += seg_gain
            left, right, rate = next(seg)
        if rate > 0:
            x_j = left + (target - cum) / rate
            cum = target
            left = x_j
        else:
            x_j = left  # leftmost point of a plateau already at the target
        breakpoints.append(x_j)
    breakpoints.append(1.0)

    pieces = tuple(restrict(nf, a, b) if not nf.is_zero() else nf
                   for a, b in zip(breakpoints, breakpoints[1:]))
    return ConvexSplit(n=n, breakpoints=tuple(breakpoints), pieces=pieces)


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
        return StepFunction.make([(0.0, 1.0 / self.k, math.exp(self.k ** 2))],
                                 total_measure=1.0)

    def to_json(self) -> dict:
        return {"k": self.k, "support_measure": self.support_measure,
                "lognorm_value": self.lognorm_value,
                "dominant_term": self.dominant_term,
                "correction": self.correction}


def separation_sequence(k: int) -> SeparationSequence:
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
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
    limit_distance: float | None  # dlog from the last term to the limit; None if not Cauchy


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
    return StepFunction.make(pieces, seq[0].total_measure)


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
        report = CauchyReport(tuple(distances), False, distances[-1], None)
        return seq[-1], report
    limit = _piecewise_limit(seq)
    report = CauchyReport(tuple(distances), True, 0.0, dlog(seq[-1], limit))
    return limit, report
