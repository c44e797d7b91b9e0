"""Holomorphic functions on the unit disk, built from Nevanlinna-class atoms.

Expression trees combine polynomials, Blaschke factors and singular inner
exponentials with Add/Sub/Mul/Div, all of them ``Binary`` nodes; a
``SafeRational`` is the Div of two polynomials.  Division is only allowed by
products of singular inner and disk-zero-free atoms, which have no zeros in
the disk, so every tree is a ratio of bounded analytic functions with a
zero-free denominator.

Evaluation is carried in log-polar form (log-modulus, unit phase) so that
integrands like log(1 + |f|) stay finite even when |f| overflows a double.
Circle means read only the log-modulus, which ``logmod`` computes without
forming the phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import InvalidParameterError, SingularityError, StructureError

_CHUNK = 1 << 19           # quadrature points per partial sum: fixes the summation bits
_BLOCK = 1 << 14           # quadrature points evaluated per numpy batch, sized for L2
_BOUNDARY_GUARD = 1e-13    # distance to z = 1 below which evaluation refuses
_GRADE = 6                 # order p of the graded nodes' clustering at z = 1
_SWEEP_K = 40              # radii class_norm sweeps at most
_SWEEP_K_MAX = 53          # radii any sweep takes at most: the next one rounds to 1
_SWEEP_M_MAX = 1 << 22     # nodes of one circle mean at most


class HoloFunction:
    """Base expression node."""

    def logpolar(self, z: np.ndarray):
        """Return (logmag, phase) with value = exp(logmag) * phase.

        phase has unit modulus where the value is nonzero and is 0 where
        the value is 0 (logmag = -inf there).
        """
        raise NotImplementedError

    def logmod(self, z: np.ndarray) -> np.ndarray:
        """log|value|, exactly logpolar(z)[0]; nodes override it to skip the phase."""
        return self.logpolar(z)[0]

    def to_json(self) -> dict:
        raise NotImplementedError


def _log_abs(v: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(v))


def _logpolar_of_values(v: np.ndarray):
    mag = np.abs(v)
    with np.errstate(divide="ignore"):
        logmag = np.log(mag)
    phase = np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 0.0 + 0.0j)
    return logmag, phase


@dataclass(frozen=True)
class Polynomial(HoloFunction):
    coeffs: tuple  # ascending order: coeffs[k] multiplies z^k

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        # |c| as well as its parts: _scaled divides by the largest |c|
        if not all(math.hypot(c.real, c.imag) < math.inf for c in coeffs):
            raise InvalidParameterError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def _scaled(self, z):
        # Horner on coeffs / max |coeff|, its log added back: no overflow for |z| <= 1
        top = max(map(abs, self.coeffs), default=0.0) or 1.0
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in reversed(self.coeffs):
            acc = acc * z + c / top
        return acc, math.log(top)

    def logpolar(self, z):
        acc, log_top = self._scaled(z)
        logmag, phase = _logpolar_of_values(acc)
        logmag += log_top
        return logmag, phase

    def logmod(self, z):
        acc, log_top = self._scaled(z)
        logmag = _log_abs(acc)
        logmag += log_top
        return logmag

    def disk_zero_free(self) -> bool:
        """No zero in |z| <= 1 + 1e-12, decided on the roots 1/z_i of sum c_k w^(d-k).

        If all |1/z_i| < 1, their elementary symmetric functions c_k / c_0 sum
        in modulus to less than 2^d; a larger or overflowing sum (beyond 2^1023
        at any degree) shows a zero in the disk, and np.roots sees no overflow.
        """
        cs = np.trim_zeros(np.asarray(self.coeffs, dtype=complex), "b")
        if cs.size == 0 or cs[0] == 0:
            return False  # identically zero, or zero at the origin
        with np.errstate(all="ignore"):
            spread = np.abs(cs[1:] / cs[0]).sum()
        if not spread < 2.0 ** min(cs.size - 1, 1023):
            return False
        return bool(np.all(np.abs(np.roots(cs)) * (1.0 + 1e-12) < 1.0))

    def to_json(self):
        return {"op": "poly",
                "coeffs": [{"re": c.real, "im": c.imag} for c in self.coeffs]}


def constant(c) -> Polynomial:
    return Polynomial([c])


@dataclass(frozen=True)
class BlaschkeFactor(HoloFunction):
    """(z - a) / (1 - conj(a) z), |a| < 1: an inner function, unimodular on the circle."""

    a: complex

    def __post_init__(self):
        a = complex(self.a)
        if not math.hypot(a.real, a.imag) < 1:  # abs raises where |a| overflows
            raise InvalidParameterError("Blaschke parameter must satisfy |a| < 1")
        object.__setattr__(self, "a", a)

    def _values(self, z):
        return (z - self.a) / (1.0 - np.conj(self.a) * z)

    def logpolar(self, z):
        return _logpolar_of_values(self._values(z))

    def logmod(self, z):
        return _log_abs(self._values(z))

    def to_json(self):
        return {"op": "blaschke", "a": {"re": self.a.real, "im": self.a.imag}}


@dataclass(frozen=True)
class SingularInner(HoloFunction):
    """exp(-s (1 + z) / (1 - z)) with s >= 0; unimodular a.e. on the circle."""

    s: float

    def __post_init__(self):
        s = float(self.s)
        if not 0 <= s < math.inf:
            raise InvalidParameterError("singular inner weight must be finite and nonnegative")
        object.__setattr__(self, "s", s)

    def _exponent(self, z):
        """-s (1 + z) / (1 - z), the log of the value; refused at z = 1."""
        z = np.asarray(z, dtype=complex)
        d = 1.0 - z
        if np.any(np.abs(d) < _BOUNDARY_GUARD):
            raise SingularityError(
                "singular inner atom is not evaluable at z = 1", atom=self)
        return -self.s * (1.0 + z) / d

    def logpolar(self, z):
        w = self._exponent(z)
        return w.real, np.exp(1j * w.imag)

    def logmod(self, z):
        return self._exponent(z).real

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

    def logmod(self, z):
        if self.op in ("add", "sub"):
            return super().logmod(z)
        l1, l2 = self.left.logmod(z), self.right.logmod(z)
        # a phase is 0 only where its log-modulus is -inf or NaN: there
        # logpolar gives the result, or refuses a vanishing denominator
        if self.op == "div" and not (l2 > -np.inf).all():
            return self.logpolar(z)[0]
        return l1 + l2 if self.op == "mul" else l1 - l2

    def to_json(self):
        return {"op": self.op, "lhs": self.left.to_json(), "rhs": self.right.to_json()}


# (left, right) constructors for the four ops
Add = partial(Binary, "add")
Sub = partial(Binary, "sub")
Mul = partial(Binary, "mul")
Div = partial(Binary, "div")


class SafeRational(Binary):
    """The div node of two polynomials, printed as "rational"."""

    def __init__(self, num_coeffs, den_coeffs):
        super().__init__("div", Polynomial(num_coeffs), Polynomial(den_coeffs))

    def to_json(self):
        return {"op": "rational",
                "num": self.left.to_json()["coeffs"],
                "den": self.right.to_json()["coeffs"]}


def from_json(obj: dict) -> HoloFunction:
    """Rebuild an expression tree from its JSON form."""
    number = lambda c: complex(c["re"], c.get("im", 0.0))  # noqa: E731
    try:
        op = obj["op"]
        if op == "poly":
            return Polynomial(map(number, obj["coeffs"]))
        if op == "rational":
            return SafeRational(map(number, obj["num"]), map(number, obj["den"]))
        if op == "blaschke":
            return BlaschkeFactor(number(obj["a"]))
        if op == "singular":
            return SingularInner(obj["s"])
        if op in _BINARY_OPS:
            return Binary(op, from_json(obj["lhs"]), from_json(obj["rhs"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"bad expression JSON: {exc}") from exc
    raise StructureError(f"unknown expression op {op!r}")


# ---------------------------------------------------------------------------
# evaluation and quadrature

def _refuse_overflow(ok: np.ndarray, start: int = 0) -> None:
    if not ok.all():
        raise InvalidParameterError(
            f"value overflows a double at grid point index {start + int(np.argmin(ok))}")


def _values(f: HoloFunction, z: np.ndarray) -> np.ndarray:
    """Values of f at the points z, refused if any of them overflows a double."""
    with np.errstate(all="ignore"):
        logmag, phase = f.logpolar(z)
        vals = np.exp(logmag) * phase
    _refuse_overflow(logmag < np.inf)  # False exactly at NaN and +inf
    _refuse_overflow(np.isfinite(vals))
    return vals


def evaluate(f: HoloFunction, z: complex) -> complex:
    """Value of f at a single point of the closed disk."""
    if not abs(z) <= 1 + 1e-12:
        raise InvalidParameterError("evaluation point must satisfy |z| <= 1")
    return complex(_values(f, np.asarray([z], dtype=complex))[0])


def _uniform_nodes(radius: float, offset: float, m: int, lo: int, hi: int):
    """Equal-weight nodes radius * exp(2 pi i (j + offset) / m), lo <= j < hi; None weights."""
    j = np.arange(lo, hi, dtype=float)
    return radius * np.exp(2j * np.pi * (j + offset) / m), None


def _graded_unit(m: int, j: np.ndarray):
    """Kress's sigmoidal nodes on the unit circle, clustered at z = 1, and their weights.

    theta = 2 pi v^p / (v^p + (1 - v)^p) at v = (j + 1/2) / m, with weight
    theta'(v) / (2 pi) so that weights average to the circle mean.  For v > 1/2
    the angle is taken as theta - 2 pi, and 1 - v is formed from j, so that
    nodes near z = 1 keep their relative precision on both sides.
    """
    v, u = (j + 0.5) / m, (m - 0.5 - j) / m
    a, b = v ** _GRADE, u ** _GRADE
    s = a + b
    phi = 2 * np.pi * np.where(v < 0.5, a, -b) / s
    return np.exp(1j * phi), _GRADE * a * b / (v * u * s * s)


@lru_cache(maxsize=2)
def _graded_grid(m: int):
    """_graded_unit of the whole grid of m nodes, read-only.

    A sweep asks for the same few grids at radius after radius, and building
    one costs about as much as evaluating a small tree on it.  Only grids of
    at most _CHUNK nodes are cached, so two of them bound the memory.
    """
    nodes = _graded_unit(m, np.arange(m, dtype=float))
    for x in nodes:
        x.setflags(write=False)
    return nodes


def _graded_nodes(radius: float, m: int, lo: int, hi: int):
    """Graded nodes and weights of the indices lo <= j < hi at the given radius."""
    if m <= _CHUNK:
        unit, w = _graded_grid(m)
        unit, w = unit[lo:hi], w[lo:hi]
    else:
        unit, w = _graded_unit(m, np.arange(lo, hi, dtype=float))
    return radius * unit, w


def _log1p_exp(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(1 + e^x) elementwise as max(x, 0) + log1p(e^-|x|), written into out.

    It keeps logaddexp(0, x) at x = +-inf, +-0, subnormals and beyond exp's
    range, and elsewhere lies within 3 ulp of it: numpy's vectorized exp and
    log1p round differently from the scalar libm calls of logaddexp, and
    where e^x is just above a power of two that its result is just below,
    one ulp of e^x is two of the result.
    """
    np.negative(np.abs(x, out=out), out=out)
    np.log1p(np.exp(out, out=out), out=out)
    out += np.maximum(x, 0.0)
    return out


def _weighted_sum(g: np.ndarray, w) -> float:
    return float(g.sum() if w is None else w @ g)


def _mean_log1p_abs(f: HoloFunction, nodes, m: int) -> float:
    """Circle mean of log(1 + |f|) over m nodes, in blocks that stay in cache.

    nodes(m, lo, hi) gives the points and weights of the node indices
    lo <= j < hi (weights None: equal weights, summed and divided by m).
    Nodes, log|f| and log(1 + |f|) (by _log1p_exp) are formed _BLOCK points
    at a time, each block written into one buffer of _CHUNK points, and each
    full buffer is summed once: the partial sums, and so the result, do not
    depend on _BLOCK.  Grids of more than _SWEEP_M_MAX nodes are refused
    before anything is evaluated.
    """
    if m < 16:
        raise InvalidParameterError("grid size must be at least 16")
    if m > _SWEEP_M_MAX:
        raise InvalidParameterError(f"grid size must be at most {_SWEEP_M_MAX}")
    g = np.empty(min(m, _CHUNK))
    total = 0.0
    for start in range(0, m, _CHUNK):
        n = min(_CHUNK, m - start)
        ws = []
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            z, w = nodes(m, start + lo, start + hi)
            with np.errstate(all="ignore"):
                logmag = f.logmod(z)
            _refuse_overflow(logmag < np.inf, start + lo)
            _log1p_exp(logmag, g[lo:hi])
            ws.append(w)
        w = ws[0] if len(ws) == 1 or ws[0] is None else np.concatenate(ws)
        total += _weighted_sum(g[:n], w)
    return total / m


def _settled_mean(f: HoloFunction, nodes, m: int, m_max: int, tol: float):
    """Circle mean of log(1 + |f|), doubling m until it moves by less than tol/4
    or m reaches m_max.

    Returns (mean, grid, delta, points): the mean on the last grid, that grid's
    size, its difference from the mean on half as many nodes, and the points
    evaluated.
    """
    v, points = _mean_log1p_abs(f, nodes, m), m
    while True:
        v2 = _mean_log1p_abs(f, nodes, 2 * m)
        m, points, delta = 2 * m, points + 2 * m, abs(v2 - v)
        if delta < tol / 4 or m >= m_max:
            return v2, m, delta, points
        v = v2


# the half-step offset grid theta_j = 2 pi (j + 1/2) / m on |z| = 1, which never meets z = 1
_boundary_nodes = partial(_uniform_nodes, 1.0, 0.5)


def sweep_radii(k_max: int) -> tuple:
    """The radii r_k = 1 - 2^-k, k = 1..k_max, along which sweeps approach the circle."""
    if not 1 <= k_max <= _SWEEP_K_MAX:
        raise InvalidParameterError(
            f"k-max must be from 1 to {_SWEEP_K_MAX}: beyond it 1 - 2^-k rounds to 1")
    return tuple(1.0 - 2.0 ** -k for k in range(1, k_max + 1))


def radial_mean(f: HoloFunction, r: float, m: int) -> float:
    """Periodic trapezoid approximation of the circle mean of log(1 + |f|) at radius r."""
    if not 0 <= r < 1:
        raise InvalidParameterError("radius must lie in [0, 1)")
    return _mean_log1p_abs(f, partial(_uniform_nodes, r, 0.0), m)


def boundary_norm(f: HoloFunction, m: int) -> float:
    """Circle mean of log(1 + |f|) on the half-step offset boundary grid."""
    return _mean_log1p_abs(f, _boundary_nodes, m)


def d_N(f: HoloFunction, g: HoloFunction, m: int) -> float:
    """Boundary F-norm distance: boundary_norm of the tree-level difference."""
    return boundary_norm(Sub(f, g), m)


@dataclass(frozen=True)
class ClassNormResult:
    """The radius sweep of class_norm and how it ended.

    grids[i] is the node count of means[i]; delta is the difference between
    the last radius's means on its last two grids, points the nodes evaluated
    over the whole sweep, and stop one of "converged", "radius-budget" or
    "grid-budget".
    """

    estimate: float
    radii: tuple
    means: tuple
    grids: tuple
    delta: float
    points: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def class_norm(f: HoloFunction, tol: float) -> ClassNormResult:
    """Supremum over r < 1 of the radial means, along the sweep_radii r_k, k <= 40.

    Each radial mean uses graded nodes theta = 2 pi v^p / (v^p + (1 - v)^p),
    v = (j + 1/2) / m, p = 6, which cluster at z = 1 where every singular
    atom sits (R. Kress, "A Nystrom method for boundary integral equations in
    domains with corners", Numer. Math. 58, 1990).  The grid is doubled from
    64 nodes until the mean moves by less than tol/4, at most to 2^22 nodes.
    Radial means of singular atoms approach their limit like sqrt(1 - r), so
    the sweep stops, converged, once an r-increment falls below
    tol (sqrt 2 - 1): the increments that would follow sum to less than tol.
    The rounding of 1 - r e^{i theta} is about 2^-52 / (1 - r) relative and
    must stay below tol, which ends the sweep at k < 52 + log2(tol) if that
    comes before k = 40.  At least two radii are swept, so that below
    tol = 1e-15 a function whose means do not move still ends converged.  If
    the radius or grid budget runs out first the running supremum is returned
    unconverged.  It is a valid lower bound either way, the means being
    nondecreasing in r.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    k_max = max(2, min(_SWEEP_K, math.ceil(math.log2(min(tol, 1.0))) + 51))
    radii, means, grids, points = sweep_radii(k_max), [], [], 0
    m, stop = 64, "radius-budget"
    for r in radii:
        v, grid, delta, n = _settled_mean(f, partial(_graded_nodes, r), m, _SWEEP_M_MAX, tol)
        means.append(v)
        grids.append(grid)
        points += n
        if not delta < tol / 4:
            stop = "grid-budget"
            break
        if len(means) > 1 and abs(v - means[-2]) < tol * (math.sqrt(2) - 1):
            stop = "converged"
            break
        m = grid // 2
    return ClassNormResult(max(means), radii[:len(means)], tuple(means), tuple(grids),
                           delta, points, stop)


@dataclass(frozen=True)
class SmirnovResult:
    """Smirnov defect, boundary norm and the class_norm sweep it came from."""

    defect: float
    is_smirnov: bool
    boundary: float
    sweep: ClassNormResult

    @property
    def class_estimate(self) -> float:
        return self.sweep.estimate

    @property
    def class_converged(self) -> bool:
        return self.sweep.converged

    def to_json(self) -> dict:
        return {"defect": self.defect, "is_smirnov": self.is_smirnov,
                "class_estimate": self.class_estimate,
                "class_converged": self.class_converged, "boundary_norm": self.boundary}


def smirnov_defect(f: HoloFunction, tol: float = 1e-4) -> SmirnovResult:
    """Gap between the radial supremum and the boundary F-norm.

    The gap vanishes exactly on the Smirnov subclass; it is clamped below
    at -tol since the radial supremum dominates the boundary integral.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    b, *_ = _settled_mean(f, _boundary_nodes, 1024, 1 << 20, tol)
    cn = class_norm(f, tol)
    defect = max(cn.estimate - b, -tol)
    return SmirnovResult(defect, defect <= tol, b, cn)

