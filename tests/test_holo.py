import cmath
import json
import math
import pathlib
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logalg import (Add, BlaschkeFactor, Div, InvalidParameterError, Mul,
                    Polynomial, SafeRational, SingularInner, StructureError,
                    Sub, boundary_norm, class_norm, constant, d_N, evaluate,
                    radial_mean, smirnov_defect, sweep_radii)
from logalg import holo
from logalg.errors import LogAlgError, SingularityError
from logalg.holo import from_json
from logalg.selftest import nevanlinna_corpus

LOG2 = math.log(2)

# radial_mean(1/(1 - 0.9 z), r = 0.99) pinned by an m = 2^20 trapezoid
# oracle; an m = 2^21 refinement agrees to 1e-16
RADIAL_GOLDEN = 0.754644650236266


def inv_singular(s=1.0):
    return Div(constant(1), SingularInner(s))


# ----------------------------------------------------------------- evaluation

def test_constant_polynomial():
    assert evaluate(Polynomial([1]), 0.3 + 0.2j) == pytest.approx(1.0)


def test_blaschke_zero_at_parameter():
    assert abs(evaluate(BlaschkeFactor(0.5), 0.5)) < 1e-15


def test_singular_inner_at_origin():
    assert evaluate(SingularInner(1.0), 0) == pytest.approx(math.exp(-1))


def test_singular_inner_boundary_singularity():
    with pytest.raises(SingularityError):
        evaluate(SingularInner(1.0), 1.0)


def test_evaluate_refuses_nan_point_as_outside_disk():
    with pytest.raises(InvalidParameterError, match=r"\|z\| <= 1"):
        evaluate(Polynomial([1]), complex(math.nan, 0))


def test_from_json_refuses_integer_beyond_double():
    with pytest.raises(StructureError):
        from_json({"op": "singular", "s": 10 ** 400})


def test_blaschke_parameter_validation():
    with pytest.raises(InvalidParameterError):
        BlaschkeFactor(1.0)


def test_division_structure_enforced():
    with pytest.raises(StructureError):
        Div(constant(1), Polynomial([0, 1]))  # z vanishes at the origin
    with pytest.raises(StructureError):
        SafeRational([1], [1, -1])  # denominator zero at z = 1


@pytest.mark.parametrize("coeffs, zero_free", [
    ([1e308, 1e-300], True),    # its zero -1e608 overflows a double
    ([1, 1e-310], True),        # a subnormal ratio: the zero is -1e310
    ([1, 5e-324], True),
    ([1e-300, 1e308], False),   # the zero -1e-608 lies in the disk
    ([1e-300, 1e308, 1e-300], False),
    ([5e-324, 1], False),
    ([0, 1], False),
    ([1, -0.9], True),
    ([1, 2, 1], False),         # a double zero on the circle
])
def test_disk_zero_free_decides_extreme_coefficients_without_overflow(coeffs, zero_free):
    assert Polynomial(coeffs).disk_zero_free() is zero_free


def test_division_by_a_polynomial_with_a_huge_zero_is_allowed():
    f = Div(constant(1), Polynomial([1e308, 1e-300]))
    assert evaluate(f, 0.5) == pytest.approx(1e-308, rel=1e-12)


def test_division_by_inner_products_allowed():
    f = Div(constant(1), Mul(Polynomial([2, 1]), SingularInner(0.5)))
    v = evaluate(f, 0.2)
    assert cmath.isfinite(v)


def test_division_by_blaschke_factor_rejected():
    # 1/z has a pole at the origin, so it is not in the Nevanlinna class
    with pytest.raises(StructureError):
        Div(constant(1), BlaschkeFactor(0))
    with pytest.raises(StructureError):
        Div(constant(1), Mul(SingularInner(0.5), BlaschkeFactor(0.5)))
    with pytest.raises(StructureError):
        from_json({"op": "div", "lhs": constant(1).to_json(),
                   "rhs": BlaschkeFactor(0).to_json()})


def test_arithmetic_matches_pointwise_evaluation():
    f = Polynomial([1, 2, 3j])
    g = BlaschkeFactor(0.3 - 0.4j)
    z = 0.5 + 0.1j
    fv, gv = evaluate(f, z), evaluate(g, z)
    assert evaluate(Add(f, g), z) == pytest.approx(fv + gv)
    assert evaluate(Sub(f, g), z) == pytest.approx(fv - gv)
    assert evaluate(Mul(f, g), z) == pytest.approx(fv * gv)


def test_json_round_trip():
    f = Div(Add(Polynomial([1, 2j]), BlaschkeFactor(0.1)),
            Mul(SingularInner(0.7), SafeRational([3, 1j], [1, 0.5])))
    g = from_json(f.to_json())
    assert g == f and g.to_json() == f.to_json()
    for z in (0.0, 0.3 + 0.4j, -0.5):
        assert evaluate(g, z) == pytest.approx(evaluate(f, z))


# log-modulus path: logmod(z) is exactly logpolar(z)[0], refusals included

_parts = st.floats(-4, 4) | st.sampled_from([0.0, 1e-300, 1e308, -1e308])
_polys = st.lists(st.builds(complex, _parts, _parts), max_size=4)
# denominators: atoms without zeros in the disk
_zero_free_atoms = st.one_of(
    st.builds(SingularInner, st.floats(0, 1e308) | st.sampled_from([0.0, 1.0, 1e308])),
    st.sampled_from([constant(2j), Polynomial([2, 1]),
                     SafeRational([1, 0.5], [1, -0.9])]),
)
_atoms = st.one_of(
    _zero_free_atoms,
    _polys.map(Polynomial),
    st.sampled_from([Polynomial([]), constant(0), Polynomial([0, 0])]),
    st.builds(SafeRational, _polys, st.sampled_from([[1, -0.9], [2, 1j], [3]])),
    st.builds(lambda r, t: BlaschkeFactor(cmath.rect(r, t)),
              st.floats(0, 0.999), st.floats(0, 2 * math.pi)),
)


def _zero_free(depth):
    if depth == 0:
        return _zero_free_atoms
    sub = _zero_free(depth - 1)
    return _zero_free_atoms | st.builds(Mul, sub, sub) | st.builds(Div, sub, sub)


def _trees(depth):
    if depth == 0:
        return _atoms
    sub = _trees(depth - 1)
    return (_atoms | st.builds(holo.Binary, st.sampled_from(["add", "sub", "mul"]), sub, sub)
            | st.builds(Div, sub, _zero_free(depth - 1)))


_points = st.lists(
    st.sampled_from([1, -1, 0, 1j, 1 - 1e-13, 1 - 2e-13, 1 - 1e-9 + 1e-9j])
    | st.builds(cmath.rect, st.floats(0, 1), st.floats(-math.pi, math.pi)),
    min_size=1, max_size=6).map(lambda ps: np.array(ps, dtype=complex))


def _outcome(fn, z):
    with np.errstate(all="ignore"):
        try:
            return fn(z)
        except LogAlgError as exc:
            return type(exc), str(exc), getattr(exc, "atom", None)


@settings(max_examples=300, deadline=None)
@given(_trees(4), _points)
def test_logmod_is_the_log_modulus_of_logpolar(f, z):
    got, want = _outcome(f.logmod, z), _outcome(lambda z: f.logpolar(z)[0], z)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got == want
    else:
        assert np.array_equal(got, want, equal_nan=True)


def test_an_infinite_denominator_is_refused_at_construction():
    # its Horner step inf / inf would make the denominator NaN, whose phase is 0
    with pytest.raises(InvalidParameterError, match="coefficients must be finite"):
        Div(constant(1), constant(math.inf))


# ---------------------------------------------------------------- radial mean

def test_radial_mean_constant():
    c = 2 + 1j
    for r in (0.0, 0.5, 0.9):
        assert radial_mean(constant(c), r, 64) == pytest.approx(
            math.log1p(abs(c)), abs=1e-14)


def test_radial_mean_identity_function():
    f = Polynomial([0, 1])
    for r in (0.0, 0.3, 0.99):
        assert radial_mean(f, r, 256) == pytest.approx(math.log1p(r), abs=1e-13)


def test_radial_mean_golden_rational():
    f = SafeRational([1], [1, -0.9])
    assert radial_mean(f, 0.99, 1 << 20) == pytest.approx(RADIAL_GOLDEN,
                                                          abs=1e-12)


def test_fixed_grid_means_keep_their_uniform_nodes():
    # pinned values of the uniform-node quadrature: the graded nodes serve
    # only class_norm, so these stay equal bit for bit
    c = nevanlinna_corpus()
    assert radial_mean(c[10], 1 - 2.0 ** -6, 4096) == 1.6328304229257746
    assert radial_mean(c[9], 0.75, 256) == 0.5840082319320052
    assert radial_mean(c[3], 0.5, 1 << 16) == 0.7109286663680032
    assert boundary_norm(c[6], 1024) == 0.6931471805599454
    assert boundary_norm(c[9], 4096) == 0.7774957752910987
    assert boundary_norm(c[4], 1 << 20) == 0.75625546044246  # two chunks


def test_radial_mean_parameter_validation():
    with pytest.raises(InvalidParameterError):
        radial_mean(constant(1), 1.0, 64)
    with pytest.raises(InvalidParameterError):
        radial_mean(constant(1), 0.5, 8)


# ------------------------------------------------------------- boundary norms

def test_boundary_norm_constant():
    assert boundary_norm(constant(3), 64) == pytest.approx(math.log(4), abs=1e-14)


def test_boundary_norm_blaschke_is_log2():
    for a in (0.0, 0.5, 0.3 - 0.4j, 0.95):
        assert boundary_norm(BlaschkeFactor(a), 4096) == pytest.approx(
            LOG2, abs=1e-8)


def test_boundary_norm_inverse_singular_inner_is_log2():
    assert boundary_norm(inv_singular(), 4096) == pytest.approx(LOG2, abs=1e-6)


def test_d_N_examples():
    f = Polynomial([0, 1])
    assert d_N(f, f, 256) == 0.0
    assert d_N(f, constant(0), 256) == pytest.approx(boundary_norm(f, 256))
    assert d_N(f, Polynomial([0, 2]), 256) == pytest.approx(LOG2, abs=1e-12)


def test_d_N_triangle_and_scaling(rng):
    f = Polynomial([1, 0.5j])
    g = BlaschkeFactor(0.4)
    h = SafeRational([1], [1, -0.5])
    m = 1024
    assert d_N(f, h, m) <= d_N(f, g, m) + d_N(g, h, m) + 1e-9
    diff = Sub(f, g)
    assert boundary_norm(Mul(constant(0.5), diff), m) <= \
        boundary_norm(diff, m) + 1e-9


# exact outputs of the quadrature, recorded in quadrature_pins.json; any change
# to its arithmetic fails here.  Re-record on purpose with
#   PYTHONPATH=src python tests/test_holo.py > tests/quadrature_pins.json
PINS = pathlib.Path(__file__).with_name("quadrature_pins.json")
PINNED_TREES = (2, 8, 10)  # z, S_1 and 1/S_1 of the corpus
PINNED_RADIAL = ((0.5, 64), (0.99, 4096), (1 - 2.0 ** -20, (1 << 19) + 64))
PINNED_BOUNDARY = (64, 4096, (1 << 19) + 64)


def quadrature_pins() -> dict:
    corpus = nevanlinna_corpus()
    sweeps = [class_norm(f, 1e-4) for f in corpus]
    return {
        "class_norm": [{"means": [repr(v) for v in res.means], "grids": list(res.grids),
                        "points": res.points, "stop": res.stop,
                        "estimate": repr(res.estimate)} for res in sweeps],
        "radial_mean": {str(i): [repr(radial_mean(corpus[i], r, m)) for r, m in PINNED_RADIAL]
                        for i in PINNED_TREES},
        "boundary_norm": {str(i): [repr(boundary_norm(corpus[i], m)) for m in PINNED_BOUNDARY]
                          for i in PINNED_TREES},
    }


def test_quadrature_outputs_are_pinned():
    assert quadrature_pins() == json.loads(PINS.read_text())


# ----------------------------------------------------------------- class norm

def test_class_norm_zero():
    res = class_norm(constant(0), 1e-6)
    assert res.estimate == 0.0 and res.converged


def test_class_norm_blaschke():
    res = class_norm(BlaschkeFactor(0.5), 1e-4)
    assert res.converged
    assert res.estimate == pytest.approx(LOG2, abs=1e-3)
    assert res.estimate <= LOG2 + 1e-9  # lower-bound property


def test_class_norm_radial_means_nondecreasing():
    res = class_norm(SafeRational([2], [1, -0.8]), 1e-5)
    assert all(b >= a - 1e-9 for a, b in zip(res.means, res.means[1:]))


def test_class_norm_inverse_singular_inner():
    f = inv_singular()
    res = class_norm(f, 1e-2)
    assert res.converged
    assert res.estimate >= boundary_norm(f, 4096) + 0.5


def test_class_norm_reports_its_sweep():
    res = class_norm(BlaschkeFactor(0.5), 1e-4)
    assert res.stop == "converged"
    assert len(res.radii) == len(res.means) == len(res.grids)
    assert res.delta < 1e-4 / 4
    assert res.points >= sum(res.grids)
    c = 2 + 1j
    assert class_norm(constant(c), 1e-4).estimate == pytest.approx(math.log1p(abs(c)), abs=1e-13)


def test_class_norm_sweeps_two_radii_below_the_rounding_limit():
    # below tol 1e-15 the rounding bound allows no radius, yet means that
    # do not move still settle on the second
    res = class_norm(constant(0), 1e-16)
    assert res.converged and len(res.radii) == 2
    res = class_norm(inv_singular(), 1e-16)
    assert not res.converged and len(res.radii) == 2


def test_class_norm_grid_budget(monkeypatch):
    # a tol no grid can meet: the first radius exhausts the grid budget
    monkeypatch.setattr(holo, "_SWEEP_M_MAX", 256)
    res = class_norm(Polynomial([1, 1, 0.5j]), 1e-300)
    assert res.stop == "grid-budget" and not res.converged
    assert res.grids == (256,) and res.points == 64 + 128 + 256
    assert res.delta >= 1e-300 / 4


@pytest.mark.parametrize("tol", [1e-4, 2e-3])
@pytest.mark.parametrize("f, limit", [(SingularInner(1.0), LOG2),
                                      (inv_singular(), 1 + LOG2)])
def test_singular_atoms_reach_their_limit(f, limit, tol):
    res = smirnov_defect(f, tol)
    assert res.class_converged and res.sweep.stop == "converged"
    assert abs(res.class_estimate - limit) <= tol


def test_sweep_stops_unconverged_at_the_rounding_limit():
    # at tol 1e-6 the rounding of 1 - r e^{i theta} caps the sweep at
    # k = 32, before the sqrt(1 - r) approach of 1/S_1 has settled
    res = class_norm(inv_singular(), 1e-6)
    assert len(res.radii) <= 32
    if res.converged:
        assert abs(res.estimate - (1 + LOG2)) <= 1e-6
    else:
        assert res.stop == "radius-budget"


@pytest.mark.parametrize("tol", [1e-4, 2e-3])
def test_is_smirnov_over_the_corpus(tol):
    corpus = nevanlinna_corpus()
    got = [smirnov_defect(f, tol).is_smirnov for f in corpus]
    assert got == [True] * (len(corpus) - 1) + [False]  # 1/S_1 is not in N+


# -------------------------------------------------------------------- smirnov

def test_smirnov_identity_function():
    res = smirnov_defect(Polynomial([0, 1]))
    assert res.is_smirnov
    assert abs(res.defect) <= 1e-4


def test_smirnov_product_of_plus_class():
    f = Mul(BlaschkeFactor(0.5), Polynomial([1, 1]))
    res = smirnov_defect(f)
    assert res.is_smirnov
    assert res.defect <= 1e-4


def test_smirnov_detects_nonsmirnov():
    res = smirnov_defect(inv_singular())
    assert not res.is_smirnov
    assert res.defect >= 0.5


# -------------------------------------------------- boundary values and radii

def boundary_values(f, m):
    """phi(f) = f*, the boundary values of f, on the m-point grid of boundary_norm."""
    z, _ = holo._boundary_nodes(m, 0, m)
    return holo._values(f, z)


def test_phi_sample_constant_one():
    assert np.allclose(boundary_values(constant(1), 32), 1.0, rtol=1e-6, atol=1e-12)


def test_phi_sample_homomorphism():
    f = Polynomial([1, 2, 1j])
    g = BlaschkeFactor(0.3)
    sf, sg = boundary_values(f, 128), boundary_values(g, 128)
    assert np.abs(sf * sg - boundary_values(Mul(f, g), 128)).max() <= 1e-10
    assert np.abs(sf + sg - boundary_values(Add(f, g), 128)).max() <= 1e-10


def test_phi_sample_offset_grid_avoids_singularity():
    # works even with a singular inner atom: the grid never hits z = 1
    assert np.all(np.abs(np.abs(boundary_values(SingularInner(1.0), 64)) - 1.0) < 1e-12)


def test_phi_sample_overflow_refused():
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        boundary_values(Polynomial([1e308, 1e308]), 64)


def test_sweep_radii_run_exactly_from_1_to_53():
    for k_max in (1, 53):
        radii = sweep_radii(k_max)
        assert [Fraction(r) for r in radii] == [1 - Fraction(1, 2 ** k)
                                               for k in range(1, k_max + 1)]
    for k_max in (0, 54):
        with pytest.raises(InvalidParameterError,
                           match=r"^k-max must be from 1 to 53: beyond it 1 - 2\^-k rounds to 1$"):
            sweep_radii(k_max)


@pytest.mark.parametrize("f, tol", [(BlaschkeFactor(0.5), 1e-4), (inv_singular(), 1e-16),
                                    (inv_singular(), 1e-6)])
def test_class_norm_sweeps_a_prefix_of_the_radii(f, tol):
    radii = class_norm(f, tol).radii
    assert radii == sweep_radii(40)[:len(radii)]


class LowerHalfOverflow(holo.HoloFunction):
    """|f| overflows on the lower half circle and is 1 elsewhere."""

    def logpolar(self, z):
        return np.where(z.imag < 0, np.inf, 0.0), np.ones_like(z)


def test_quadrature_overflow_refused():
    with pytest.raises(InvalidParameterError, match="grid point index"):
        boundary_norm(inv_singular(1e308), 64)
    # the first overflowing node, theta just past pi, lies in a later block;
    # the refusal names its index in the whole grid
    m = 1 << 16
    assert m // 2 >= holo._BLOCK
    with pytest.raises(InvalidParameterError, match=f"grid point index {m // 2}$"):
        boundary_norm(LowerHalfOverflow(), m)


# -------------------------------------------------------- the quadrature kernel

def one_shot_mean(f, nodes, m):
    """The kernel's mean with each whole _CHUNK of nodes evaluated at once."""
    total = 0.0
    for start in range(0, m, holo._CHUNK):
        z, w = nodes(m, start, min(start + holo._CHUNK, m))
        with np.errstate(all="ignore"):
            logmag = f.logmod(z)
        total += holo._weighted_sum(holo._log1p_exp(logmag, np.empty(len(z))), w)
    return total / m


@pytest.mark.parametrize("m", [16, holo._BLOCK - 1, holo._BLOCK, holo._BLOCK + 1,
                               (1 << 19) + 64, 3 * (1 << 19) + 5])
@pytest.mark.parametrize("nodes", [partial(holo._uniform_nodes, 0.9, 0.5),
                                   partial(holo._graded_nodes, 0.99)],
                         ids=["uniform", "graded"])
def test_blocked_kernel_equals_one_shot_chunks(m, nodes):
    # blocks fix only how many points are evaluated at once: each _CHUNK is
    # still summed whole, so the mean is the same to the last bit
    f = inv_singular()
    assert holo._mean_log1p_abs(f, nodes, m) == one_shot_mean(f, nodes, m)


SOFTPLUS_EDGES = [math.inf, -math.inf, 0.0, -0.0, 1e-320, -1e-320, 800.0, -800.0]


def softplus(x):
    x = np.asarray(x, dtype=float)
    return holo._log1p_exp(x, np.empty_like(x))


def test_softplus_keeps_logaddexp_at_the_edges(rng):
    # exact at infinities, zeros, subnormals and beyond exp's range
    assert list(softplus(SOFTPLUS_EDGES)) == list(np.logaddexp(0.0, SOFTPLUS_EDGES))
    # 3 ulp at most elsewhere: just above e^x = 2^-6 (x near -4.158) a 1-ulp
    # rounding of e^x is 2 ulp of the result, which lies in the binade below
    x = np.concatenate([rng.normal(size=100_000) * s for s in (1, 10, 100)])
    np.testing.assert_array_max_ulp(softplus(x), np.logaddexp(0.0, x), maxulp=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from(SOFTPLUS_EDGES)),
                min_size=1, max_size=64))
def test_softplus_is_logaddexp_within_3_ulp(xs):
    np.testing.assert_array_max_ulp(softplus(xs), np.logaddexp(0.0, xs), maxulp=3)


if __name__ == "__main__":
    print(json.dumps(quadrature_pins(), indent=1))
