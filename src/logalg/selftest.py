"""The one registry of named invariant checks, grouped by the acceptance gate's criteria.

Each check is a function of a numpy Generator and a :class:`Sizes` record
and raises InvariantError naming the inequality that failed.  ``logalg
selftest`` (:func:`run_all`) runs the registry at small sizes on one
generator; the acceptance gate runs it at larger sizes, one seeded
generator per criterion.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import holo, operators as ops, stepfn, witnesses
from .errors import InvalidParameterError, InvariantError, LogAlgError

SLACK = 1e-10
_MAX_TRIALS = 1 << 20  # run_all's trials at most: some 25 minutes at 1.3 ms a trial


def random_step(rng: np.random.Generator, max_pieces: int = 6,
                max_scale: float = 10.0) -> stepfn.StepFunction:
    """Up to max_pieces random complex pieces on [0, 1)."""
    k = int(rng.integers(0, max_pieces + 1))
    cuts = np.sort(rng.uniform(0, 1.0, size=2 * k))
    pieces = []
    for i in range(k):
        l, r = cuts[2 * i], cuts[2 * i + 1]
        if r <= l:
            continue
        v = complex(rng.normal(0, max_scale), rng.normal(0, max_scale))
        pieces.append((l, r, v))
    return stepfn.StepFunction(pieces, 1.0)


def random_matrix(rng: np.random.Generator, n: int) -> ops.MatrixOperator:
    """n x n complex Gaussian matrix, each part of each entry of deviation 3."""
    a = rng.normal(0, 3.0, (n, n)) + 1j * rng.normal(0, 3.0, (n, n))
    return ops.MatrixOperator(a)


def scale_to_lognorm(f: stepfn.StepFunction, target: float) -> float:
    """Positive c with lognorm(c f) = target, bisected down to adjacent doubles."""
    return stepfn._bisect(lambda c: stepfn.lognorm(stepfn.scale(f, c)) < target)


def nevanlinna_corpus():
    """Small corpus spanning polynomials, rationals, inner functions and N \\ N+.

    Every member lies in the Smirnov class N+ except the last, 1/S_1.
    """
    z = holo.Polynomial([0, 1])
    return [
        holo.constant(0),
        holo.constant(2 + 1j),
        z,
        holo.Polynomial([1, 1, 0.5j]),
        holo.SafeRational([1], [1, -0.9]),
        holo.BlaschkeFactor(0.5),
        holo.BlaschkeFactor(0.3 - 0.4j),
        holo.Mul(holo.BlaschkeFactor(0.5), holo.BlaschkeFactor(-0.2j)),
        holo.SingularInner(1.0),
        holo.Mul(holo.BlaschkeFactor(0.5), holo.Polynomial([1, 1])),
        holo.Div(holo.constant(1), holo.SingularInner(1.0)),
    ]


# ---------------------------------------------------------------------------
# registry

class Sizes(NamedTuple):
    """How much the checks draw and how finely the Nevanlinna checks sample."""

    step_trials: int       # pairs of random step functions in criteria 1 and 2
    trials: int            # draws of every other randomized check
    radial_k: int          # radial means at the radii holo.sweep_radii(radial_k)
    smirnov_tol: float     # tolerance passed to smirnov_defect


class Check(NamedTuple):
    name: str
    fn: Callable[[np.random.Generator, Sizes], None]

    def run(self, rng: np.random.Generator, sizes: Sizes) -> None:
        """Run the check; any failure is re-raised as InvariantError led by its name."""
        try:
            self.fn(rng, sizes)
        except LogAlgError as exc:
            raise InvariantError(f"{self.name}: {exc}") from exc


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


def _step_axioms(rng, sizes):
    for _ in range(sizes.step_trials):
        f = random_step(rng)
        g = random_step(rng)
        nf, ng = stepfn.lognorm(f), stepfn.lognorm(g)
        _require(nf >= 0 and (f.is_zero() or nf > 0), "positivity")
        alpha = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        _require(stepfn.lognorm(stepfn.scale(f, alpha)) <= nf + SLACK,
                 "|alpha| <= 1 scaling")
        _require(stepfn.lognorm(stepfn.pointwise(f, g, "add")) <= nf + ng + SLACK,
                 "triangle inequality")
        decay = [stepfn.lognorm(stepfn.scale(f, 2.0 ** -k)) for k in range(1, 8)]
        _require(all(b <= a + SLACK for a, b in zip(decay, decay[1:]))
                 and decay[-1] < 0.1 * nf + 1e-9, "2^-k f decays to 0")


def _matrix_axioms(rng, sizes):
    for _ in range(sizes.trials):
        n = int(rng.integers(2, 9))
        S = random_matrix(rng, n)
        T = random_matrix(rng, n)
        nS, nT = ops.lognorm_op(S), ops.lognorm_op(T)
        _require(nT > 0, "positivity")
        _require(abs(ops.lognorm_op(T.adjoint()) - nT) <= SLACK, "adjoint invariance")
        alpha = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        _require(ops.lognorm_op(T.scaled(alpha)) <= nT + SLACK, "|alpha| <= 1 scaling")
        _require(ops.lognorm_op(S + T) <= nS + nT + SLACK, "triangle inequality")


def _step_products(rng, sizes):
    for _ in range(sizes.step_trials):
        f = random_step(rng)
        g = random_step(rng)
        nf, ng = stepfn.lognorm(f), stepfn.lognorm(g)
        nfg = stepfn.lognorm(stepfn.pointwise(f, g, "mul"))
        _require(nfg <= nf + ng + SLACK, "lognorm(fg) <= lognorm(f) + lognorm(g)")
        # monotone in a dominated factor: |g| <= |2g|
        nf2g = stepfn.lognorm(stepfn.pointwise(f, stepfn.scale(g, 2), "mul"))
        _require(nfg <= nf2g + SLACK, "lognorm(fg) <= lognorm(2fg)")
        for K in (0.5, 4.0):
            _require(stepfn.lognorm(stepfn.scale(f, K)) <= max(K, 1.0) * nf + SLACK,
                     "lognorm(Kf) <= max(K, 1) lognorm(f)")


def _matrix_products(rng, sizes):
    for _ in range(sizes.trials):
        n = int(rng.integers(2, 9))
        S = random_matrix(rng, n)
        T = random_matrix(rng, n)
        nS, nT = ops.lognorm_op(S), ops.lognorm_op(T)
        nST = ops.lognorm_op(S @ T)
        _require(nST <= nS + nT + SLACK, "lognorm(ST) <= lognorm(S) + lognorm(T)")
        _require(nST <= max(S.operator_norm(), 1.0) * nT + SLACK,
                 "lognorm(ST) <= max(||S||, 1) lognorm(T)")
        muS, muT = S.singular_values, T.singular_values
        _require(nST <= sum(math.log1p(a * b) for a, b in zip(muS, muT)) / n + SLACK,
                 "submajorization of singular-number products")
        _require(ops.lognorm_op(S + T) <= nS + nT + SLACK, "triangle inequality")


def _orlicz(rng, sizes):
    count = 0
    while count < sizes.trials:
        f = random_step(rng)
        if f.is_zero():
            continue
        N = 2 + count % 9
        fs = stepfn.scale(f, scale_to_lognorm(f, 1.0 / N ** 2))
        _require(abs(stepfn.lognorm(fs) - 1.0 / N ** 2) <= 1e-13,
                 "scaling to lognorm 1/N^2")
        phi = stepfn.orlicz_fnorm(fs)
        _require(phi < 1.0 / N, "lognorm 1/N^2 implies Orlicz F-norm < 1/N")
        for g, phi_g in ((fs, phi), (f, stepfn.orlicz_fnorm(f))):
            _require(phi_g >= 1 or stepfn.lognorm(g) <= phi_g + 1e-10,
                     "lognorm <= Orlicz F-norm below 1")
        dist = [stepfn.dlog(f, stepfn.truncate(f, M)) for M in (0.5, 1, 2, 4, 8, 16, 1e6)]
        _require(all(b <= a + SLACK for a, b in zip(dist, dist[1:])) and dist[-1] == 0.0,
                 "truncation density")
        count += 1


def _embedding(rng, sizes):
    for _ in range(sizes.trials):
        n = 2 ** int(rng.integers(0, 5))
        k = int(rng.integers(0, n + 1))
        pieces = [(i / n, (i + 1) / n, complex(rng.normal(0, 5), rng.normal(0, 5)))
                  for i in range(k)]
        f = stepfn.StepFunction(pieces, 1.0)
        D = ops.embed_diagonal(f, n)
        nf = stepfn.lognorm(f)
        _require(abs(ops.lognorm_op(D) - nf) <= 1e-12, "lognorm_op(D) = lognorm(f)")
        rearranged = stepfn.decreasing_rearrangement(f)
        _require(ops.singular_numbers(D).approx_eq(rearranged),
                 "singular numbers of D = decreasing rearrangement of f")
        _require(abs(rearranged.log_integral() - nf) <= 1e-12, "rearrangement invariance")


def _dtau(rng, sizes):
    for _ in range(sizes.trials):
        n = int(rng.integers(1, 9))
        A = random_matrix(rng, n)
        B = random_matrix(rng, n)
        # independent partial series straight from an SVD of the difference
        sigma = np.linalg.svd(A.entries - B.entries, compute_uv=False)
        series = sum(2.0 ** (-k) * np.count_nonzero(sigma >= 1.0 / k) / n
                     for k in range(1, 61))
        _require(abs(ops.dtau(A, B) - series) <= 2.0 ** -60 + 1e-12,
                 "dtau closed form = partial series")
        for delta in (0.1, 1.0, 10.0):
            _require(ops.measure_above(A, delta)
                     <= ops.lognorm_op(A.scaled(3.0 / delta)) + SLACK,
                     "measure_above(A, delta) <= lognorm(3A/delta)")


def _inner_normalization(rng, sizes):
    B = holo.BlaschkeFactor
    inner = [B(0.5), B(0.3 - 0.4j), B(-0.85), holo.Mul(B(0.5), B(-0.2j)),
             holo.Mul(holo.Mul(B(0.1), B(0.6j)), B(-0.4)), holo.SingularInner(1.0)]
    for f in inner:
        _require(abs(holo.boundary_norm(f, 4096) - math.log(2)) <= 1e-6,
                 f"boundary norm of inner {f.to_json()} is log 2")


def _radial_monotonicity(rng, sizes):
    for f in nevanlinna_corpus():
        means = [holo.radial_mean(f, r, 4096) for r in holo.sweep_radii(sizes.radial_k)]
        _require(all(b >= a - 1e-9 for a, b in zip(means, means[1:])),
                 f"radial means of {f.to_json()} nondecreasing")


def _smirnov(rng, sizes):
    tol = sizes.smirnov_tol
    corpus = nevanlinna_corpus()
    for i, f in enumerate(corpus):
        res = holo.smirnov_defect(f, tol)
        # Fatou direction: the radial supremum dominates the boundary norm.
        # A converged class_norm trails its limit by less than tol, and the
        # boundary mean is settled to tol/4.
        _require(res.class_estimate >= res.boundary - 2 * tol,
                 f"Fatou direction for {f.to_json()}")
        if i < len(corpus) - 1:
            _require(res.defect <= tol, f"{f.to_json()} is in N+")
        else:
            _require(res.defect >= 0.5 and not res.is_smirnov,
                     f"{f.to_json()} is not in N+")


def _boundary_algebra(rng, sizes):
    corpus = nevanlinna_corpus()
    f, g, h = corpus[2], corpus[5], corpus[4]
    m = 4096
    _require(holo.d_N(f, h, m) <= holo.d_N(f, g, m) + holo.d_N(g, h, m) + 1e-9,
             "d_N triangle inequality")
    fg = holo.Sub(f, g)
    _require(holo.boundary_norm(holo.Mul(holo.constant(0.5), fg), m)
             <= holo.boundary_norm(fg, m) + 1e-9, "|alpha| <= 1 scaling of d_N")
    z, _ = holo._boundary_nodes(256, 0, 256)
    sf, sg, sfg, ssum = (holo._values(u, z) for u in (f, g, holo.Mul(f, g), holo.Add(f, g)))
    _require(np.abs(sf * sg - sfg).max() <= 1e-10, "boundary values of a product")
    _require(np.abs(sf + sg - ssum).max() <= 1e-10, "boundary values of a sum")


def _unboundedness(rng, sizes):
    for eps in (0.1, 1.0):
        for N in (2, 10):
            _require(witnesses.unboundedness_witness(eps, N).verify(),
                     f"witness for eps = {eps}, N = {N}")


def _convex_split(rng, sizes):
    one = stepfn.StepFunction([(0, 1, 1.0)], 1.0)
    split = witnesses.convex_split(one, 0.1)
    _require(split.n == 37, "n = 37 for f = 1, eps = 0.1")
    _require(split.verify(), "minimal n, slices joining to n f, of equal norms below eps")


def _separation(rng, sizes):
    seq = [witnesses.separation_sequence(k) for k in range(1, 21)]
    _require(all(b.support_measure < a.support_measure
                 and b.lognorm_value > a.lognorm_value for a, b in zip(seq, seq[1:])),
             "support shrinks while the norm grows")
    _require(math.isclose(seq[-1].support_measure, 0.05, rel_tol=1e-6, abs_tol=1e-12)
             and seq[-1].lognorm_value >= 20.0, "k = 20 term")


def _cauchy(rng, sizes):
    base = stepfn.StepFunction([(0, 0.5, 2.0), (0.5, 1.0, 40.0)], 1.0)
    truncations = [stepfn.truncate(base, 2.0 ** k) for k in range(0, 9)]
    limit, report = witnesses.cauchy_limit(truncations, 1e-9)
    _require(report.is_cauchy and limit == base, "truncations converge to their base")
    one = stepfn.StepFunction([(0, 1, 1.0)], 1.0)
    alternating = [stepfn.StepFunction.zero(1.0), one] * 4
    _, report = witnesses.cauchy_limit(alternating, 1e-9)
    _require(not report.is_cauchy and abs(report.gap - math.log(2)) <= 1e-12
             and report.limit_distance is None, "alternating sequence is not Cauchy")


# (criterion name, checks), in the gate's order
CRITERIA = (
    ("F-norm axioms", (
        Check("step F-norm axioms", _step_axioms),
        Check("matrix F-norm axioms", _matrix_axioms))),
    ("multiplication bounds", (
        Check("step multiplication bounds", _step_products),
        Check("matrix multiplication and submajorization", _matrix_products))),
    ("Orlicz equivalence", (
        Check("Orlicz equivalence and truncation density", _orlicz),)),
    ("diagonal embedding consistency", (
        Check("diagonal embedding consistency", _embedding),)),
    ("measure-topology metric", (
        Check("measure-topology metric and comparison", _dtau),)),
    ("Nevanlinna suite", (
        Check("inner function normalization", _inner_normalization),
        Check("radial monotonicity", _radial_monotonicity),
        Check("Smirnov defect and Fatou direction", _smirnov),
        Check("boundary F-norm and homomorphism", _boundary_algebra))),
    ("witness suite", (
        Check("unboundedness witnesses", _unboundedness),
        Check("convex split", _convex_split),
        Check("separation sequence", _separation))),
    ("completeness mechanics", (
        Check("Cauchy mechanics", _cauchy),)),
)


def run_all(seed: int = 0, trials: int = 200) -> None:
    """Run every check on one generator and print a line each, then raise
    InvariantError naming the checks that failed."""
    if seed < 0:
        raise InvalidParameterError("seed must be nonnegative")
    if trials < 1:
        raise InvalidParameterError("trials must be a positive integer")
    if trials > _MAX_TRIALS:
        raise InvalidParameterError(f"trials must be at most {_MAX_TRIALS}")
    rng = np.random.default_rng(seed)
    # a Smirnov tolerance of 2e-3 keeps the Nevanlinna checks near 2.5e6 points
    sizes = Sizes(step_trials=trials, trials=trials, radial_k=12, smirnov_tol=2e-3)
    failures: list[str] = []
    for _, checks in CRITERIA:
        for check in checks:
            try:
                check.run(rng, sizes)
            except InvariantError as exc:
                print(f"[selftest] FAIL: {exc}")
                failures.append(check.name)
            else:
                print(f"[selftest] pass: {check.name}")
    if failures:
        print(f"[selftest] {len(failures)} check(s) failed: {', '.join(failures)}")
        raise InvariantError(f"selftest failed: {', '.join(failures)}")
    print("[selftest] all suites passed")
