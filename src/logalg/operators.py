"""Matrix model of the log-integrable operator algebra.

Operators are n x n complex matrices under the normalized trace
tau = (1/n) Tr.  Singular values play the role of the generalized
singular number function; every functional here is a function of them.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainMismatchError, InvalidParameterError, MalformedInputError
from .stepfn import SingularStep, StepFunction

_MAX_EMBED_BYTES = 1 << 30  # embed_diagonal's n x n complex entries at most: n <= 8192


@dataclass(frozen=True, eq=False)
class MatrixOperator:
    """Checked, read-only n x n complex matrix with tau = (1/n) Tr; == and hash by identity."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=complex, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise MalformedInputError("entries must form a square matrix of size >= 1")
        big, parts = sys.float_info.max / 2, a.view(float)  # |entry| <= sqrt(2) max(|re|, |im|)
        if not -big <= parts.min() <= parts.max() <= big:  # nan fails too
            with np.errstate(over="ignore"):  # finite parts whose modulus overflows
                if not np.isfinite(np.abs(a)).all():
                    raise MalformedInputError("matrix entries must have a finite modulus")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def make(entries) -> "MatrixOperator":  # the constructor, under the name bench/ wraps
        return MatrixOperator(entries)

    def adjoint(self) -> "MatrixOperator":
        return MatrixOperator(self.entries.conj().T)

    def operator_norm(self) -> float:
        return float(self.singular_values[0])

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Nonincreasing singular values of a values-only SVD, noise flushed to 0."""
        return _flushed(np.linalg.svd(self.entries, compute_uv=False))

    @cached_property
    def vh(self) -> np.ndarray:
        """Read-only vh of the full SVD: row i belongs to singular_values[i]."""
        vh = np.linalg.svd(self.entries)[2]
        vh.setflags(write=False)
        return vh

    def __add__(self, other: "MatrixOperator") -> "MatrixOperator":
        _check_dims(self, other)
        return _computed(np.add, self.entries, other.entries)

    def __sub__(self, other: "MatrixOperator") -> "MatrixOperator":
        _check_dims(self, other)
        return _computed(np.subtract, self.entries, other.entries)

    def __matmul__(self, other: "MatrixOperator") -> "MatrixOperator":
        _check_dims(self, other)
        return _computed(np.matmul, self.entries, other.entries)

    def scaled(self, alpha: complex) -> "MatrixOperator":
        return _computed(np.multiply, alpha, self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "MatrixOperator":
        try:
            n = obj["n"]
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"bad matrix JSON: {exc}") from exc
        if type(n) is not int or re.shape != (n, n) or im.shape != (n, n):
            raise MalformedInputError("matrix JSON needs an integer n and n x n arrays")
        return MatrixOperator(re + 1j * im)


@dataclass(frozen=True)
class SpectralSplit:
    """Decomposition T = bounded_part + tail_part at a singular-value cutoff."""

    bounded_part: MatrixOperator
    tail_part: MatrixOperator
    cutoff: float

    def to_json(self) -> dict:
        return {"cutoff": self.cutoff, "bounded_part": self.bounded_part.to_json(),
                "tail_part": self.tail_part.to_json()}


def _computed(ufunc, *operands) -> MatrixOperator:
    """ufunc(*operands) of checked operands, where a non-finite entry is an overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        entries = ufunc(*operands)
    try:
        return MatrixOperator(entries)
    except MalformedInputError:
        raise InvalidParameterError("value overflows a double") from None


def _check_dims(a: MatrixOperator, b: MatrixOperator) -> None:
    if a.n != b.n:
        raise DomainMismatchError(f"matrix size mismatch: {a.n} vs {b.n}")


def _flushed(s: np.ndarray) -> np.ndarray:
    """Read-only s with values at numpy's rank noise floor sigma_max * n * eps set to 0;
    an overflowing sigma_max * n counts as the largest double, so sigma_max = inf is kept."""
    if s.size and s[0] > 0:
        floor = min(float(s[0]) * s.size, sys.float_info.max) * sys.float_info.epsilon
        s = np.where(s <= floor, 0.0, s)
    s.setflags(write=False)
    return s


def singular_numbers(T: MatrixOperator) -> SingularStep:
    """Singular values as a step function on (0, 1]: each nonzero one carries width 1/n,
    and the function is zero after them, as a StepFunction is zero off its pieces."""
    if not T.operator_norm() < math.inf:
        raise InvalidParameterError("value overflows a double")
    return SingularStep([(1.0 / T.n, float(s)) for s in T.singular_values])


def lognorm_op(T: MatrixOperator) -> float:
    """tau(log(1 + |T|)) = (1/n) sum of log(1 + sigma_i).

    A nonzero T whose trace underflows gets the smallest positive double,
    so that lognorm_op(T) = 0 only for T = 0.
    """
    s = T.singular_values
    total = float(np.log1p(s).sum()) / T.n
    return math.ulp(0.0) if total == 0.0 and s.any() else total


def dlog_op(S: MatrixOperator, T: MatrixOperator) -> float:
    return lognorm_op(S - T)


def measure_above(T: MatrixOperator, delta: float) -> float:
    """tau of the spectral projection of |T| onto [delta, inf)."""
    if not delta > 0:
        raise InvalidParameterError("delta must be positive")
    return float(np.count_nonzero(T.singular_values >= delta)) / T.n


def dtau(A: MatrixOperator, B: MatrixOperator) -> float:
    """Measure-topology metric, in closed form.

    The series sum_{k>=1} 2^{-k} tau(E_{|A-B|}([1/k, inf))) collapses: a
    singular value sigma > 0 enters every term with 1/k <= sigma, so it
    contributes (1/n) 2^{1-k0} where k0 is the smallest such k.
    Below sigma = 2^-11, k0 >= 2^11 and that contribution underflows to
    0.0, so such values are skipped before 1/sigma can overflow.
    """
    total = 0.0
    for sigma in (A - B).singular_values:
        if sigma < 2.0 ** -11:
            continue
        k0 = max(1, math.ceil(1.0 / sigma))
        # align the integer threshold with the float membership test 1/k <= sigma
        while k0 > 1 and 1.0 / (k0 - 1) <= sigma:
            k0 -= 1
        while 1.0 / k0 > sigma:
            k0 += 1
        total += 2.0 ** (1 - k0) / A.n
    return total


def _right_singular_projector(T: MatrixOperator, member) -> np.ndarray:
    """Projection onto the right-singular vectors whose sigma satisfies member()."""
    if not T.operator_norm() < math.inf:  # an overflowed SVD has no sound vh
        raise InvalidParameterError("value overflows a double")
    rows = T.vh[[bool(member(float(x))) for x in T.singular_values], :]
    return rows.conj().T @ rows


def spectral_project(T: MatrixOperator, a: float, b: float = math.inf) -> MatrixOperator:
    """Spectral projection of |T| for the interval [a, b) (b may be inf)."""
    if a < 0:
        raise InvalidParameterError("interval must lie in [0, inf)")
    if not b > a:
        raise InvalidParameterError("interval requires a < b")
    p = _right_singular_projector(T, lambda s: a <= s < b)
    p += p.conj().T  # exactly Hermitian: entry (j, i) is the conjugate of entry (i, j)
    p *= 0.5
    return MatrixOperator(p)


def split_at(T: MatrixOperator, K: float) -> SpectralSplit:
    """Split T = T E_{|T|}([0, K]) + T E_{|T|}((K, inf))."""
    if not K > 0:
        raise InvalidParameterError("cutoff K must be positive")
    tail = T.entries @ _right_singular_projector(T, lambda s: s > K)
    return SpectralSplit(
        bounded_part=MatrixOperator(T.entries - tail),
        tail_part=MatrixOperator(tail),
        cutoff=float(K),
    )


def fk_determinant(T: MatrixOperator) -> float:
    """exp(tau(log |T|)): the geometric mean of the singular values."""
    s = T.singular_values
    if np.any(s == 0.0):
        return 0.0
    return float(math.exp(np.log(s).sum() / T.n))


def embed_diagonal(f: StepFunction, n: int) -> MatrixOperator:
    """Diagonal matrix repeating each piece value proportionally to its length.

    Requires total_measure 1 and every piece length an integer multiple
    of 1/n, so the embedded operator has exactly the same log F-norm.
    """
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    if n * n * 16 > _MAX_EMBED_BYTES:
        raise InvalidParameterError(
            f"n x n complex entries must fit in {_MAX_EMBED_BYTES} bytes, so n <= "
            f"{math.isqrt(_MAX_EMBED_BYTES // 16)}")
    if f.total_measure != 1:
        raise InvalidParameterError("embed_diagonal requires total_measure 1")
    counts = [round((r - l) * n) for l, r, _ in f.pieces]
    for (l, r, _), k in zip(f.pieces, counts):
        if abs((r - l) * n - k) > 1e-9 or k < 1:
            raise InvalidParameterError(f"piece length {r - l} is not a multiple of 1/{n}")
    if sum(counts) > n:
        raise InvalidParameterError("pieces exceed total matrix size")
    entries = np.zeros((n, n), dtype=complex)  # first: a too large n allocates nothing else
    i = np.arange(sum(counts))
    entries[i, i] = np.repeat([v for _, _, v in f.pieces], counts)
    return MatrixOperator(entries)
