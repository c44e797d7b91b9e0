"""Strict JSON emission with floats at 15 significant digits.

Each float prints as the repr of its 15-digit rounding, or as its own repr
when that rounding overflows; NaN and infinities raise InvariantError.
"""
import json
import math

from .errors import InvariantError

_string = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    text = f"{x:.15g}"
    if "e" not in text:
        if "." in text:
            return text
        if text[-1] in "fn":  # inf, nan
            raise InvariantError(f"result is not finite: {text}")
        return text + ".0"
    # repr prints exponent 15 in full and may shorten a subnormal's 15 digits
    tail = text[-4:]
    if tail == "e+15" or tail == "+308" or tail[:2] == "-3":
        rounded = float(text)
        return float.__repr__(x if math.isinf(rounded) else rounded)
    return text


def _encode(obj) -> str:
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map(_float, obj)) + "]"
        return "[" + ", ".join(map(_encode, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_string(k)}: {_encode(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, complex):
        return f'{{"re": {_float(obj.real)}, "im": {_float(obj.imag)}}}'
    return json.dumps(obj)


def dumps(obj) -> str:
    """json.dumps(obj) with floats as above, each complex as {"re", "im"}, str keys only."""
    return _encode(obj)
