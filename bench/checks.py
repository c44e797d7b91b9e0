"""Independent reference computations and output properties.

Everything here works on the raw JSON inputs with numpy, never through
logalg, so a check cannot pass because the program agrees with itself.
"""
from __future__ import annotations

import json
import math

import numpy as np

EMIT_RTOL = 5.5e-15  # 15 significant digits: half a unit in the 15th digit, plus binary rounding


# --------------------------------------------------------------------- step functions

class Step:
    """A step function read straight from its JSON document."""

    def __init__(self, doc: dict):
        p = doc["pieces"]
        self.left = np.array([x["l"] for x in p], dtype=float)
        self.right = np.array([x["r"] for x in p], dtype=float)
        self.values = np.array([complex(x["re"], x.get("im", 0.0)) for x in p], dtype=complex)

    @staticmethod
    def of(pieces) -> "Step":
        """From a program result's (left, right, value) tuples."""
        return Step({"pieces": [{"l": l, "r": r, "re": v.real, "im": v.imag} for l, r, v in pieces]})

    def at(self, x: np.ndarray) -> np.ndarray:
        """Values at the points x, by searchsorted over the sorted left ends."""
        x = np.asarray(x, dtype=float)
        if not self.left.size:
            return np.zeros(x.shape, dtype=complex)
        idx = np.searchsorted(self.left, x, side="right") - 1
        inside = (idx >= 0) & (x < self.right[np.maximum(idx, 0)])
        return np.where(inside, self.values[np.maximum(idx, 0)], 0j)

    def ends(self) -> np.ndarray:
        return np.concatenate((self.left, self.right))

    def pieces(self) -> list:
        return list(zip(self.left.tolist(), self.right.tolist(), self.values.tolist()))


def lognorm(s: Step, scale: float = 1.0) -> float:
    return math.fsum(((s.right - s.left) * np.log1p(scale * np.abs(s.values))).tolist())


def refinement(*steps: Step):
    """Merged breakpoints: left ends and widths of the refined intervals."""
    b = np.unique(np.concatenate([s.ends() for s in steps]))
    return b[:-1], np.diff(b)


def dlog(f: Step, g: Step) -> float:
    a, w = refinement(f, g)
    return math.fsum((w * np.log1p(np.abs(f.at(a) - g.at(a)))).tolist())


def close(x, ref, rtol, atol=0.0) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) \
        and abs(x - ref) <= atol + rtol * abs(ref)


def is_rearrangement(steps, f: Step, rtol: float) -> bool:
    """steps, as (width, height) pairs, are nonincreasing in height and carry the
    multiset of (width, |value|) of f (values are distinct, so nothing merges)."""
    if any(b[1] > a[1] for a, b in zip(steps, steps[1:])):
        return False
    want = sorted(zip(np.abs(f.values).tolist(), (f.right - f.left).tolist()), reverse=True)
    return len(steps) == len(want) and all(
        math.isclose(h, wh, rel_tol=rtol) and math.isclose(w, ww, rel_tol=rtol)
        for (w, h), (wh, ww) in zip(steps, want))


def embedded_diagonal(f: Step, n: int) -> np.ndarray:
    """Each piece value repeated (length * n) times, in order, then zeros."""
    counts = np.rint((f.right - f.left) * n).astype(int)
    diag = np.repeat(f.values, counts)
    return np.diag(np.concatenate((diag, np.zeros(n - diag.size, dtype=complex))))


# --------------------------------------------------------------------- matrices

def matrix(doc: dict) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def dtau_series(sv_diff, n: int) -> float:
    """Partial series sum_{k<=60} 2^-k tau(E_{|A-B|}[1/k, inf)) from an independent SVD."""
    s = np.asarray(sv_diff)
    return sum(2.0 ** (-k) * np.count_nonzero(s >= 1.0 / k) / n for k in range(1, 61))


def is_projection(p: np.ndarray, atol: float = 1e-10) -> bool:
    return bool(np.allclose(p @ p, p, atol=atol, rtol=0) and np.allclose(p, p.conj().T, atol=atol, rtol=0))


# --------------------------------------------------------------------- emitted JSON

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _same(parsed, doc) -> bool:
    if isinstance(doc, complex):
        return _same(parsed, {"re": doc.real, "im": doc.imag})
    if isinstance(doc, float):
        return isinstance(parsed, (int, float)) and math.isfinite(doc) \
            and abs(parsed - doc) <= EMIT_RTOL * abs(doc)
    if isinstance(doc, dict):
        return isinstance(parsed, dict) and parsed.keys() == doc.keys() \
            and all(_same(parsed[k], v) for k, v in doc.items())
    if isinstance(doc, (list, tuple)):
        if doc and isinstance(doc[0], (list, tuple)) and doc[0] and isinstance(doc[0][0], float):
            a, b = np.asarray(doc, dtype=float), np.asarray(parsed, dtype=float)
            return a.shape == b.shape and bool(np.all(np.abs(b - a) <= EMIT_RTOL * np.abs(a)))
        return isinstance(parsed, list) and len(parsed) == len(doc) \
            and all(_same(p, d) for p, d in zip(parsed, doc))
    return parsed == doc


def round_trips(doc, text: str) -> bool:
    """The emitted text parses strictly and matches doc to 15 significant digits."""
    try:
        parsed = strict_loads(text)
    except ValueError:
        return False
    return _same(parsed, doc)
