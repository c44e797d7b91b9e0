"""Strict JSON emission with norms printed to 15 significant digits."""
from __future__ import annotations

import json
import math

from .errors import InvariantError


def _round15(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.15g}")


def _walk(obj):
    if isinstance(obj, float):
        return _round15(obj)
    if isinstance(obj, complex):
        return {"re": _round15(obj.real), "im": _round15(obj.imag)}
    if isinstance(obj, dict):
        return {k: _walk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walk(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """JSON text of obj; a NaN or infinite float raises InvariantError."""
    try:
        return json.dumps(_walk(obj), allow_nan=False)
    except ValueError as exc:
        raise InvariantError(f"result is not finite: {exc}") from exc
