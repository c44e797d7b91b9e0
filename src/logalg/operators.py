"""Matrix model of the log-integrable operator algebra.

Operators are n x n complex matrices under the normalized trace
tau = (1/n) Tr.  Singular values play the role of the generalized
singular number function; every functional here is a function of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, InvalidParameterError, MalformedInputError
from .stepfn import SingularStep, StepFunction

#: singular values below RANK_RTOL * sigma_max are treated as exact zeros
RANK_RTOL = 1e-12


@dataclass(frozen=True)
class MatrixOperator:
    """n x n complex matrix with the normalized trace tau = (1/n) Tr."""

    entries: np.ndarray
    n: int

    @staticmethod
    def make(entries) -> "MatrixOperator":
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise MalformedInputError("entries must form a square matrix of size >= 1")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise MalformedInputError("matrix entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        return MatrixOperator(a, a.shape[0])

    @staticmethod
    def zero(n: int) -> "MatrixOperator":
        return MatrixOperator.make(np.zeros((n, n)))

    @staticmethod
    def identity(n: int) -> "MatrixOperator":
        return MatrixOperator.make(np.eye(n))

    def adjoint(self) -> "MatrixOperator":
        return MatrixOperator.make(self.entries.conj().T)

    def trace(self) -> complex:
        """Normalized trace."""
        return complex(np.trace(self.entries)) / self.n

    def operator_norm(self) -> float:
        return float(np.linalg.norm(self.entries, 2))

    def __add__(self, other: "MatrixOperator") -> "MatrixOperator":
        _check_dims(self, other)
        return MatrixOperator.make(self.entries + other.entries)

    def __sub__(self, other: "MatrixOperator") -> "MatrixOperator":
        _check_dims(self, other)
        return MatrixOperator.make(self.entries - other.entries)

    def __matmul__(self, other: "MatrixOperator") -> "MatrixOperator":
        _check_dims(self, other)
        return MatrixOperator.make(self.entries @ other.entries)

    def scaled(self, alpha: complex) -> "MatrixOperator":
        return MatrixOperator.make(alpha * self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "MatrixOperator":
        try:
            n = int(obj["n"])
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"bad matrix JSON: {exc}") from exc
        if re.shape != (n, n) or im.shape != (n, n):
            raise MalformedInputError("matrix JSON arrays must be n x n")
        return MatrixOperator.make(re + 1j * im)


@dataclass(frozen=True)
class SpectralSplit:
    """Decomposition T = bounded_part + tail_part at a singular-value cutoff."""

    bounded_part: MatrixOperator
    tail_part: MatrixOperator
    cutoff: float


def _check_dims(a: MatrixOperator, b: MatrixOperator) -> None:
    if a.n != b.n:
        raise DomainMismatchError(f"matrix size mismatch: {a.n} vs {b.n}")


def _svd(T: MatrixOperator, vectors: bool = False):
    """Nonincreasing singular values, tiny ones flushed to zero, and vh if vectors else None."""
    if vectors:
        _, s, vh = np.linalg.svd(T.entries)
    else:
        s, vh = np.linalg.svd(T.entries, compute_uv=False), None
    if s.size and s[0] > 0:
        s = np.where(s < RANK_RTOL * s[0], 0.0, s)
    return s, vh


def singular_numbers(T: MatrixOperator) -> SingularStep:
    """Singular values as a step function on (0, 1]: each carries width 1/n."""
    return SingularStep.make([(1.0 / T.n, float(s)) for s in _svd(T)[0]])


def lognorm_op(T: MatrixOperator) -> float:
    """tau(log(1 + |T|)) = (1/n) sum of log(1 + sigma_i).

    A nonzero T whose trace underflows gets the smallest positive double,
    so that lognorm_op(T) = 0 only for T = 0.
    """
    s = _svd(T)[0]
    total = float(np.log1p(s).sum()) / T.n
    return math.ulp(0.0) if total == 0.0 and s.any() else total


def dlog_op(S: MatrixOperator, T: MatrixOperator) -> float:
    return lognorm_op(S - T)


def measure_above(T: MatrixOperator, delta: float) -> float:
    """tau of the spectral projection of |T| onto [delta, inf)."""
    if not delta > 0:
        raise InvalidParameterError("delta must be positive")
    return float(np.count_nonzero(_svd(T)[0] >= delta)) / T.n


def dtau(A: MatrixOperator, B: MatrixOperator) -> float:
    """Measure-topology metric, in closed form.

    The series sum_{k>=1} 2^{-k} tau(E_{|A-B|}([1/k, inf))) collapses: a
    singular value sigma > 0 enters every term with 1/k <= sigma, so it
    contributes (1/n) 2^{1-k0} where k0 is the smallest such k.
    Below sigma = 2^-11, k0 >= 2^11 and that contribution underflows to
    0.0, so such values are skipped before 1/sigma can overflow.
    """
    _check_dims(A, B)
    total = 0.0
    for sigma in _svd(A - B)[0]:
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
    s, vh = _svd(T, vectors=True)
    rows = vh[[bool(member(float(x))) for x in s], :]
    return rows.conj().T @ rows


def spectral_project(T: MatrixOperator, a: float, b: float = math.inf) -> MatrixOperator:
    """Spectral projection of |T| for the interval [a, b) (b may be inf)."""
    if a < 0:
        raise InvalidParameterError("interval must lie in [0, inf)")
    if not b > a:
        raise InvalidParameterError("interval requires a < b")
    return MatrixOperator.make(_right_singular_projector(T, lambda s: a <= s < b))


def split_at(T: MatrixOperator, K: float) -> SpectralSplit:
    """Split T = T E_{|T|}([0, K]) + T E_{|T|}((K, inf))."""
    if not K > 0:
        raise InvalidParameterError("cutoff K must be positive")
    p_tail = _right_singular_projector(T, lambda s: s > K)
    tail = T.entries @ p_tail
    return SpectralSplit(
        bounded_part=MatrixOperator.make(T.entries - tail),
        tail_part=MatrixOperator.make(tail),
        cutoff=float(K),
    )


def fk_determinant(T: MatrixOperator) -> float:
    """exp(tau(log |T|)): the geometric mean of the singular values."""
    s = _svd(T)[0]
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
    return MatrixOperator.make(entries)
