"""Holomorphic functions on the unit disk, built from Nevanlinna-class atoms.

Expression trees combine polynomials, disk-zero-free rationals, Blaschke
factors and singular inner exponentials with Add/Sub/Mul/Div, all of them
``Binary`` nodes.  Division is only allowed by products of singular inner
and disk-zero-free atoms, which have no zeros in the disk, so every tree is
a ratio of bounded analytic functions with a zero-free denominator.

Evaluation is carried in log-polar form (log-modulus, unit phase) so that
integrands like log(1 + |f|) stay finite even when |f| overflows a double.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidParameterError, SingularityError, StructureError

_CHUNK = 1 << 19           # quadrature points evaluated per numpy batch
_BOUNDARY_GUARD = 1e-13    # distance to z = 1 below which evaluation refuses


class HoloFunction:
    """Base expression node."""

    def logpolar(self, z: np.ndarray):
        """Return (logmag, phase) with value = exp(logmag) * phase.

        phase has unit modulus where the value is nonzero and is 0 where
        the value is 0 (logmag = -inf there).
        """
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


def _logpolar_of_values(v: np.ndarray):
    mag = np.abs(v)
    with np.errstate(divide="ignore"):
        logmag = np.log(mag)
    phase = np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 0.0 + 0.0j)
    return logmag, phase


@dataclass(frozen=True)
class Polynomial(HoloFunction):
    coeffs: tuple  # ascending order: coeffs[k] multiplies z^k

    @staticmethod
    def make(coeffs) -> "Polynomial":
        return Polynomial(tuple(complex(c) for c in coeffs))

    def logpolar(self, z):
        # Horner on coeffs / max |coeff|, its log added back: no overflow for |z| <= 1
        top = max(map(abs, self.coeffs), default=0.0) or 1.0
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in reversed(self.coeffs):
            acc = acc * z + c / top
        logmag, phase = _logpolar_of_values(acc)
        logmag += math.log(top)
        return logmag, phase

    def disk_zero_free(self) -> bool:
        cs = np.trim_zeros(np.asarray(self.coeffs, dtype=complex), "b")
        if cs.size == 0:
            return False  # identically zero
        if cs.size == 1:
            return True
        roots = np.roots(cs[::-1])
        return bool(np.all(np.abs(roots) > 1.0 + 1e-12))

    def to_json(self):
        return {"op": "poly",
                "coeffs": [{"re": c.real, "im": c.imag} for c in self.coeffs]}


def constant(c) -> Polynomial:
    return Polynomial.make([c])


@dataclass(frozen=True)
class SafeRational(HoloFunction):
    """numerator / denominator with the denominator zero-free on |z| <= 1."""

    numerator: Polynomial
    denominator: Polynomial

    @staticmethod
    def make(num_coeffs, den_coeffs) -> "SafeRational":
        num = Polynomial.make(num_coeffs)
        den = Polynomial.make(den_coeffs)
        if not den.disk_zero_free():
            raise StructureError(
                "SafeRational denominator has a zero on the closed unit disk")
        return SafeRational(num, den)

    def logpolar(self, z):
        ln, pn = self.numerator.logpolar(z)
        ld, pd = self.denominator.logpolar(z)
        return ln - ld, pn / pd

    def to_json(self):
        return {"op": "rational",
                "num": self.numerator.to_json()["coeffs"],
                "den": self.denominator.to_json()["coeffs"]}


@dataclass(frozen=True)
class BlaschkeFactor(HoloFunction):
    """(z - a) / (1 - conj(a) z), |a| < 1: an inner function, unimodular on the circle."""

    a: complex

    @staticmethod
    def make(a) -> "BlaschkeFactor":
        a = complex(a)
        if not abs(a) < 1:
            raise InvalidParameterError("Blaschke parameter must satisfy |a| < 1")
        return BlaschkeFactor(a)

    def logpolar(self, z):
        v = (z - self.a) / (1.0 - np.conj(self.a) * z)
        return _logpolar_of_values(v)

    def to_json(self):
        return {"op": "blaschke", "a": {"re": self.a.real, "im": self.a.imag}}


@dataclass(frozen=True)
class SingularInner(HoloFunction):
    """exp(-s (1 + z) / (1 - z)) with s >= 0; unimodular a.e. on the circle."""

    s: float

    @staticmethod
    def make(s) -> "SingularInner":
        s = float(s)
        if s < 0:
            raise InvalidParameterError("singular inner weight must be nonnegative")
        return SingularInner(s)

    def logpolar(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(1.0 - z) < _BOUNDARY_GUARD):
            raise SingularityError(
                "singular inner atom is not evaluable at z = 1", atom=self)
        w = -self.s * (1.0 + z) / (1.0 - z)
        return w.real, np.exp(1j * w.imag)

    def to_json(self):
        return {"op": "singular", "s": self.s}


def _is_zero_free(node: HoloFunction) -> bool:
    """True for products and quotients of singular inners and disk-zero-free atoms.

    Blaschke factors are excluded: each vanishes inside the disk, so
    dividing by one leaves the Nevanlinna class.
    """
    if isinstance(node, SingularInner):
        return True
    if isinstance(node, Polynomial):
        return node.disk_zero_free()
    if isinstance(node, SafeRational):
        return node.numerator.disk_zero_free()
    if isinstance(node, Binary) and node.op in ("mul", "div"):
        # a div node's right side already passed this check
        return _is_zero_free(node.left) and (node.op == "div" or _is_zero_free(node.right))
    return False


def _combine_sum(l1, p1, l2, p2, sign):
    lm = np.maximum(l1, l2)
    lm = np.where(np.isneginf(lm), 0.0, lm)  # both terms zero: avoid inf - inf
    v = p1 * np.exp(l1 - lm) + sign * p2 * np.exp(l2 - lm)
    lv, pv = _logpolar_of_values(v)
    return lm + lv, pv


# op -> combination of the operands' log-polar forms (l1, p1), (l2, p2)
_BINARY_OPS = {
    "add": lambda l1, p1, l2, p2: _combine_sum(l1, p1, l2, p2, 1.0),
    "sub": lambda l1, p1, l2, p2: _combine_sum(l1, p1, l2, p2, -1.0),
    "mul": lambda l1, p1, l2, p2: (l1 + l2, p1 * p2),
    "div": lambda l1, p1, l2, p2: (l1 - l2, p1 / p2),
}


@dataclass(frozen=True)
class Binary(HoloFunction):
    """left <op> right for op in add, sub, mul, div."""

    op: str
    left: HoloFunction
    right: HoloFunction

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise StructureError(f"unknown expression op {self.op!r}")
        if self.op == "div" and not _is_zero_free(self.right):
            raise StructureError(
                "division is only allowed by products of singular inner "
                "and disk-zero-free atoms")

    def logpolar(self, z):
        l1, p1 = self.left.logpolar(z)
        l2, p2 = self.right.logpolar(z)
        if self.op == "div" and np.any(p2 == 0):
            raise SingularityError(
                "denominator vanishes at an evaluation point", atom=self.right)
        return _BINARY_OPS[self.op](l1, p1, l2, p2)

    def to_json(self):
        return {"op": self.op, "lhs": self.left.to_json(), "rhs": self.right.to_json()}


# (left, right) constructors for the four ops
Add = partial(Binary, "add")
Sub = partial(Binary, "sub")
Mul = partial(Binary, "mul")
Div = partial(Binary, "div")


def has_singular_atom(f: HoloFunction) -> bool:
    """True if the tree contains a singular inner exponential anywhere."""
    if isinstance(f, SingularInner):
        return True
    if isinstance(f, Binary):
        return has_singular_atom(f.left) or has_singular_atom(f.right)
    return False


def from_json(obj: dict) -> HoloFunction:
    """Rebuild an expression tree from its JSON form."""
    try:
        op = obj["op"]
        if op == "poly":
            return Polynomial.make([complex(c["re"], c.get("im", 0.0))
                                    for c in obj["coeffs"]])
        if op == "rational":
            return SafeRational.make(
                [complex(c["re"], c.get("im", 0.0)) for c in obj["num"]],
                [complex(c["re"], c.get("im", 0.0)) for c in obj["den"]])
        if op == "blaschke":
            return BlaschkeFactor.make(complex(obj["a"]["re"], obj["a"].get("im", 0.0)))
        if op == "singular":
            return SingularInner.make(obj["s"])
        if op in _BINARY_OPS:
            return Binary(op, from_json(obj["lhs"]), from_json(obj["rhs"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"bad expression JSON: {exc}") from exc
    raise StructureError(f"unknown expression op {op!r}")


# ---------------------------------------------------------------------------
# evaluation and quadrature

def _refuse_overflow(ok: np.ndarray, start: int = 0) -> None:
    if not ok.all():
        raise InvalidParameterError(
            f"value overflows a double at grid point index {start + int(np.argmin(ok))}")


def _checked_logpolar(f: HoloFunction, z: np.ndarray, start: int = 0):
    """Warning-free f.logpolar(z) refusing NaN or +inf log-moduli; z[0] is grid point start."""
    with np.errstate(all="ignore"):
        logmag, phase = f.logpolar(z)
    _refuse_overflow(logmag < np.inf, start)  # False exactly at NaN and +inf
    return logmag, phase


def _values(f: HoloFunction, z: np.ndarray) -> np.ndarray:
    """Values of f at the points z, refused if any of them overflows a double."""
    logmag, phase = _checked_logpolar(f, z)
    with np.errstate(all="ignore"):
        vals = np.exp(logmag) * phase
    _refuse_overflow(np.isfinite(vals))
    return vals


def evaluate(f: HoloFunction, z: complex) -> complex:
    """Value of f at a single point of the closed disk."""
    if abs(z) > 1 + 1e-12:
        raise InvalidParameterError("evaluation point must satisfy |z| <= 1")
    return complex(_values(f, np.asarray([z], dtype=complex))[0])


def _mean_log1p_abs(f: HoloFunction, radius: float, m: int, offset: float) -> float:
    """Equal-weight circle quadrature of log(1 + |f|), chunked for memory."""
    if m < 16:
        raise InvalidParameterError("grid size must be at least 16")
    total = 0.0
    for start in range(0, m, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, m), dtype=float)
        z = radius * np.exp(2j * np.pi * (j + offset) / m)
        logmag, _ = _checked_logpolar(f, z, start)
        total += float(np.logaddexp(0.0, logmag).sum())
    return total / m


def _settled_mean(f: HoloFunction, radius: float, offset: float, m: int,
                  m_max: int, tol: float):
    """Circle mean of log(1 + |f|), doubling m until it moves by less than tol/4.

    Returns (mean, next_m): next_m is the coarser grid of the settled pair,
    or m_max if the grid budget ran out first.
    """
    v = _mean_log1p_abs(f, radius, m, offset)
    while m < m_max:
        v2 = _mean_log1p_abs(f, radius, 2 * m, offset)
        if abs(v2 - v) < tol / 4:
            return v2, m
        v, m = v2, 2 * m
    return v, m


def radial_mean(f: HoloFunction, r: float, m: int) -> float:
    """Periodic trapezoid approximation of the circle mean of log(1 + |f|) at radius r."""
    if not 0 <= r < 1:
        raise InvalidParameterError("radius must lie in [0, 1)")
    return _mean_log1p_abs(f, r, m, offset=0.0)


def boundary_norm(f: HoloFunction, m: int) -> float:
    """Circle mean of log(1 + |f|) on the half-step offset boundary grid."""
    return _mean_log1p_abs(f, 1.0, m, offset=0.5)


def d_N(f: HoloFunction, g: HoloFunction, m: int) -> float:
    """Boundary F-norm distance: boundary_norm of the tree-level difference."""
    return boundary_norm(Sub(f, g), m)


@dataclass(frozen=True)
class ClassNormResult:
    estimate: float
    converged: bool
    radii: tuple
    means: tuple


def class_norm(f: HoloFunction, tol: float) -> ClassNormResult:
    """Supremum over r < 1 of the radial means, along r_k = 1 - 2^-k, k <= 17.

    Each radial mean is grid-refined from 64 points until doubling changes
    it by less than tol/4 (capped at 2^22 points).  The sweep stops,
    converged, once an r-increment falls below tol; if the radius or grid
    budget is exhausted first the running supremum is returned flagged
    unconverged.  It is a valid lower bound either way, the means being
    nondecreasing in r.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    radii, means = [], []
    m = 64
    for k in range(1, 18):
        r = 1.0 - 2.0 ** (-k)
        v, m = _settled_mean(f, r, 0.0, m, 1 << 22, tol)
        radii.append(r)
        means.append(v)
        if k > 1 and abs(v - means[-2]) < tol:
            return ClassNormResult(max(means), True, tuple(radii), tuple(means))
    return ClassNormResult(max(means), False, tuple(radii), tuple(means))


@dataclass(frozen=True)
class SmirnovResult:
    defect: float
    is_smirnov: bool
    class_estimate: float
    class_converged: bool
    boundary: float


def smirnov_defect(f: HoloFunction, tol: float = 1e-4) -> SmirnovResult:
    """Gap between the radial supremum and the boundary F-norm.

    The gap vanishes exactly on the Smirnov subclass; it is clamped below
    at -tol since the radial supremum dominates the boundary integral.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    b, _ = _settled_mean(f, 1.0, 0.5, 1024, 1 << 20, tol)
    cn = class_norm(f, tol)
    defect = max(cn.estimate - b, -tol)
    return SmirnovResult(defect, defect <= tol, cn.estimate, cn.converged, b)


@dataclass(frozen=True)
class CircleSample:
    """Boundary values on the half-step offset grid theta_j = 2 pi (j + 1/2) / m."""

    m: int
    values: tuple


def phi_sample(f: HoloFunction, m: int) -> CircleSample:
    if m < 1:
        raise InvalidParameterError("grid size must be positive")
    j = np.arange(m, dtype=float)
    vals = _values(f, np.exp(2j * np.pi * (j + 0.5) / m))
    return CircleSample(m, tuple(complex(v) for v in vals))
