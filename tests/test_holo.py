import cmath
import math

import pytest

from logalg import (Add, BlaschkeFactor, Div, InvalidParameterError, Mul,
                    Polynomial, SafeRational, SingularInner, StructureError,
                    Sub, boundary_norm, class_norm, constant, d_N, evaluate,
                    phi_sample, radial_mean, smirnov_defect)
from logalg.errors import SingularityError
from logalg.holo import from_json, has_singular_atom

LOG2 = math.log(2)

# radial_mean(1/(1 - 0.9 z), r = 0.99) pinned by an m = 2^20 trapezoid
# oracle; an m = 2^21 refinement agrees to 1e-16
RADIAL_GOLDEN = 0.754644650236266


def inv_singular(s=1.0):
    return Div(constant(1), SingularInner.make(s))


# ----------------------------------------------------------------- evaluation

def test_constant_polynomial():
    assert evaluate(Polynomial.make([1]), 0.3 + 0.2j) == pytest.approx(1.0)


def test_blaschke_zero_at_parameter():
    assert abs(evaluate(BlaschkeFactor.make(0.5), 0.5)) < 1e-15


def test_singular_inner_at_origin():
    assert evaluate(SingularInner.make(1.0), 0) == pytest.approx(math.exp(-1))


def test_singular_inner_boundary_singularity():
    with pytest.raises(SingularityError):
        evaluate(SingularInner.make(1.0), 1.0)


def test_blaschke_parameter_validation():
    with pytest.raises(InvalidParameterError):
        BlaschkeFactor.make(1.0)


def test_division_structure_enforced():
    with pytest.raises(StructureError):
        Div(constant(1), Polynomial.make([0, 1]))  # z vanishes at the origin
    with pytest.raises(StructureError):
        SafeRational.make([1], [1, -1])  # denominator zero at z = 1


def test_division_by_inner_products_allowed():
    f = Div(constant(1), Mul(Polynomial.make([2, 1]), SingularInner.make(0.5)))
    v = evaluate(f, 0.2)
    assert cmath.isfinite(v)


def test_division_by_blaschke_factor_rejected():
    # 1/z has a pole at the origin, so it is not in the Nevanlinna class
    with pytest.raises(StructureError):
        Div(constant(1), BlaschkeFactor.make(0))
    with pytest.raises(StructureError):
        Div(constant(1), Mul(SingularInner.make(0.5), BlaschkeFactor.make(0.5)))
    with pytest.raises(StructureError):
        from_json({"op": "div", "lhs": constant(1).to_json(),
                   "rhs": BlaschkeFactor.make(0).to_json()})


def test_arithmetic_matches_pointwise_evaluation():
    f = Polynomial.make([1, 2, 3j])
    g = BlaschkeFactor.make(0.3 - 0.4j)
    z = 0.5 + 0.1j
    fv, gv = evaluate(f, z), evaluate(g, z)
    assert evaluate(Add(f, g), z) == pytest.approx(fv + gv)
    assert evaluate(Sub(f, g), z) == pytest.approx(fv - gv)
    assert evaluate(Mul(f, g), z) == pytest.approx(fv * gv)


def test_json_round_trip():
    f = Div(Add(Polynomial.make([1, 2j]), BlaschkeFactor.make(0.1)),
            Mul(SingularInner.make(0.7), SafeRational.make([3, 1j], [1, 0.5])))
    g = from_json(f.to_json())
    assert g == f and g.to_json() == f.to_json()
    for z in (0.0, 0.3 + 0.4j, -0.5):
        assert evaluate(g, z) == pytest.approx(evaluate(f, z))


def test_has_singular_atom():
    assert has_singular_atom(inv_singular())
    assert not has_singular_atom(Mul(BlaschkeFactor.make(0.5), constant(2)))


# ---------------------------------------------------------------- radial mean

def test_radial_mean_constant():
    c = 2 + 1j
    for r in (0.0, 0.5, 0.9):
        assert radial_mean(constant(c), r, 64) == pytest.approx(
            math.log1p(abs(c)), abs=1e-14)


def test_radial_mean_identity_function():
    f = Polynomial.make([0, 1])
    for r in (0.0, 0.3, 0.99):
        assert radial_mean(f, r, 256) == pytest.approx(math.log1p(r), abs=1e-13)


def test_radial_mean_golden_rational():
    f = SafeRational.make([1], [1, -0.9])
    assert radial_mean(f, 0.99, 1 << 20) == pytest.approx(RADIAL_GOLDEN,
                                                          abs=1e-12)


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
        assert boundary_norm(BlaschkeFactor.make(a), 4096) == pytest.approx(
            LOG2, abs=1e-8)


def test_boundary_norm_inverse_singular_inner_is_log2():
    assert boundary_norm(inv_singular(), 4096) == pytest.approx(LOG2, abs=1e-6)


def test_d_N_examples():
    f = Polynomial.make([0, 1])
    assert d_N(f, f, 256) == 0.0
    assert d_N(f, constant(0), 256) == pytest.approx(boundary_norm(f, 256))
    assert d_N(f, Polynomial.make([0, 2]), 256) == pytest.approx(LOG2, abs=1e-12)


def test_d_N_triangle_and_scaling(rng):
    f = Polynomial.make([1, 0.5j])
    g = BlaschkeFactor.make(0.4)
    h = SafeRational.make([1], [1, -0.5])
    m = 1024
    assert d_N(f, h, m) <= d_N(f, g, m) + d_N(g, h, m) + 1e-9
    diff = Sub(f, g)
    assert boundary_norm(Mul(constant(0.5), diff), m) <= \
        boundary_norm(diff, m) + 1e-9


# ----------------------------------------------------------------- class norm

def test_class_norm_zero():
    res = class_norm(constant(0), 1e-6)
    assert res.estimate == 0.0 and res.converged


def test_class_norm_blaschke():
    res = class_norm(BlaschkeFactor.make(0.5), 1e-4)
    assert res.converged
    assert res.estimate == pytest.approx(LOG2, abs=1e-3)
    assert res.estimate <= LOG2 + 1e-9  # lower-bound property


def test_class_norm_radial_means_nondecreasing():
    res = class_norm(SafeRational.make([2], [1, -0.8]), 1e-5)
    assert all(b >= a - 1e-9 for a, b in zip(res.means, res.means[1:]))


def test_class_norm_inverse_singular_inner():
    f = inv_singular()
    res = class_norm(f, 1e-2)
    assert res.converged
    assert res.estimate >= boundary_norm(f, 4096) + 0.5


# -------------------------------------------------------------------- smirnov

def test_smirnov_identity_function():
    res = smirnov_defect(Polynomial.make([0, 1]))
    assert res.is_smirnov
    assert abs(res.defect) <= 1e-4


def test_smirnov_product_of_plus_class():
    f = Mul(BlaschkeFactor.make(0.5), Polynomial.make([1, 1]))
    res = smirnov_defect(f)
    assert res.is_smirnov
    assert res.defect <= 1e-4


def test_smirnov_detects_nonsmirnov():
    res = smirnov_defect(inv_singular())
    assert not res.is_smirnov
    assert res.defect >= 0.5


# ------------------------------------------------------------------- sampling

def test_phi_sample_constant_one():
    s = phi_sample(constant(1), 32)
    assert all(v == pytest.approx(1.0) for v in s.values)


def test_phi_sample_homomorphism():
    f = Polynomial.make([1, 2, 1j])
    g = BlaschkeFactor.make(0.3)
    sf = phi_sample(f, 128).values
    sg = phi_sample(g, 128).values
    prod = phi_sample(Mul(f, g), 128).values
    summ = phi_sample(Add(f, g), 128).values
    assert max(abs(a * b - c) for a, b, c in zip(sf, sg, prod)) <= 1e-10
    assert max(abs(a + b - c) for a, b, c in zip(sf, sg, summ)) <= 1e-10


def test_phi_sample_offset_grid_avoids_singularity():
    # works even with a singular inner atom: the grid never hits z = 1
    s = phi_sample(SingularInner.make(1.0), 64)
    assert all(abs(abs(v) - 1.0) < 1e-12 for v in s.values)


def test_phi_sample_overflow_refused():
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        phi_sample(Polynomial.make([1e308, 1e308]), 64)


def test_quadrature_overflow_refused():
    with pytest.raises(InvalidParameterError, match="grid point index"):
        boundary_norm(inv_singular(1e308), 64)
