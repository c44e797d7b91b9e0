"""Strict JSON emission with floats at 15 significant digits.

Each float prints as the repr of its 15-digit rounding, or as its own repr
when that rounding overflows; NaN and infinities raise InvariantError.
A run of floats (a list of them, or of records with the same keys and float
values) is formatted by one %-operation; only the tokens that this text may
get wrong are then redone one by one.
"""
import json
import math
import re
from itertools import chain

from .errors import InvariantError

_string = json.encoder.encode_basestring_ascii
_TAILS = re.compile(r"e(?:\+15|\+308|-3)")  # a token that _float may rewrite


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


def _run(xs) -> str:
    """", ".join(map(_float, xs)) for a sequence xs of floats."""
    text = ("%.15g, " * len(xs))[:-2] % tuple(xs)
    if text.count(".") == len(xs) and not _TAILS.search(text):
        return text
    # mend only what may differ: integral digits, exponents, inf and nan
    return ", ".join([t if "." in t and "e" not in t else t + ".0" if t.isdigit() else _float(x)
                      for t, x in zip(text.split(", "), xs)])


def _records(ds: list):
    """_encode(ds) for dicts ds with the same str keys in the same order and float values, else None."""
    keys = tuple(ds[0])
    values = [*chain.from_iterable(map(dict.values, ds))]
    if set(map(type, values)) != {float} or set(map(tuple, ds)) != {keys} or set(map(type, keys)) != {str}:
        return None
    record = "{" + ", ".join(_string(k).replace("%", "%%") + ": %s" for k in keys) + "}"
    return "[" + ", ".join([record] * len(ds)) % tuple(_run(values).split(", ")) + "]"


def _encode(obj) -> str:
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + _run(obj) + "]"
        if set(map(type, obj)) == {dict} and (text := _records(obj)) is not None:
            return text
        return "[" + ", ".join(map(_encode, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_string(k)}: {_encode(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, complex):
        return f'{{"re": {_float(obj.real)}, "im": {_float(obj.imag)}}}'
    return json.dumps(obj)


def dumps(obj) -> str:
    """json.dumps(obj) with floats as above, each complex as {"re", "im"}, str keys only."""
    return _encode(obj)
