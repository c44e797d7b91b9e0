"""Strict JSON emission with floats at 15 significant digits.

Each float prints as the repr of its 15-digit rounding, or as its own repr
when that rounding overflows; NaN and infinities raise InvariantError.
A run of floats (a list of them, or of records with the same keys and float
values) is formatted by one %-operation; only the tokens that this text may
get wrong are then redone one by one.  Where numpy is already loaded, a run of
at least _VECTOR_MIN floats, or a matrix (equal-length rows of floats) with
that many, is printed by _vector instead, with the same bytes.
"""
import functools
import json
import math
import re
import sys
from itertools import chain

from .errors import InvariantError

_string = json.encoder.encode_basestring_ascii
_TAILS = re.compile(r"e(?:\+15|\+308|-3)")  # a token that _float may rewrite
_VECTOR_MIN = 2048  # floats from which _vector beats one %-format: it costs ~0.15 ms of numpy calls
_BLOCK = 1 << 14    # floats per _vector call, so that its temporaries (~2 MB) stay in cache
_NUMBERS = {int, float}  # the types of json.loads's numbers: a bool is neither


def number(x):
    """x if it is a JSON number (an int or a float); TypeError for a bool, a string or other."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, not {x!r}")
    return x


def numbers(rows):
    """rows, a list of tuples, if each item is an int or a float as json.loads makes them (no
    bool); TypeError for the first that is not.  One set of types, not a number() call each."""
    if not {type(x) for row in rows for x in row} <= _NUMBERS:
        bad = next(x for row in rows for x in row if type(x) not in _NUMBERS)
        raise TypeError(f"expected a number, not {bad!r}")
    return rows


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


@functools.cache
def _tables(np):
    """Exact 10^0..10^18 with the Veltkamp halves of each, the same as int64, the
    five ASCII digits of 0..99999 (then the two separators), the count of digits
    up to the last nonzero one of each, and the byte masks of _vector's layouts."""
    p10 = np.array([float(10 ** k) for k in range(19)])
    c = p10 * 134217729.0
    p10_hi = c - (c - p10)
    digit = np.arange(48, 58, dtype=np.uint8)  # "0".."9"
    columns = [np.tile(np.repeat(digit, 10 ** (4 - j)), 10 ** j) for j in range(5)]
    text = np.concatenate([np.stack(columns, axis=1).view("S5").ravel(), [b", ", b"], ["]])
    last = np.full(100_000, 5, np.int8)
    for j in range(1, 5):  # a multiple of 10^j ends in j zeros
        last[::10 ** j] = 5 - j
    last[0] = 0
    start, end, row_end = np.ogrid[:17, 17:35, :2]
    col = np.arange(40)[:, None, None, None]
    masks = (col >= start) & (col <= end) & (start < 16) | (col >= 35) & (col < 37 + 2 * row_end)
    return (p10, p10_hi, p10 - p10_hi, np.array([10 ** k for k in range(19)], dtype=np.int64),
            text, last, np.moveaxis(masks, 0, -1).reshape(-1, 40))


def _vector(np, block) -> str:
    """"], [".join(", ".join(map(_float, row)) for row in block) for a 2-D float64 array.

    For 1e-4 <= |x| < 1e15, with e = floor(log10 |x|) and k = 14 - e in [0, 18],
    the 15 digits are m = rint(|x| 10^k), accepted where the exact residual
    r = |x| 10^k - m (Dekker's two-product) shows that m is the correct
    rounding in the right decade.  Each token is then laid out in a 40-byte
    row: a spare byte for "-", 15 integer places, ".", 18 fractional places and
    the separator, and the bytes that the token prints are kept.  Every other
    value is printed by _float, in order, so the first non-finite one raises.
    """
    p10, p10_hi, p10_lo, p10_int, text, last, masks = _tables(np)
    cols = block.shape[1]
    x = block.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e15)
    a = np.where(fast, ax, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 14).astype(np.intp)  # off by one only next to 10^e
    k = 14 - e
    p = p10[k]
    y = a * p
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * p10_hi[k] - y) + a_hi * p10_lo[k] + a_lo * p10_hi[k]) + a_lo * p10_lo[k]
    m = np.rint(y)
    r = (y - m) + err
    step = np.rint(r)  # ±1 where y rounded to a half-integer beyond which the exact product lies
    m += step
    r -= step
    # m = 10^14 with r < 0 means |x| < 10^e: its 15 digits are those of 10 |x| 10^k
    ok = fast & (np.abs(r) < 0.5 - 2.0 ** -20) & (m < 1e15) & ((m > 1e14) | (m == 1e14) & (r >= 0))
    m = np.where(ok, m, 1e14)
    i = np.floor(m / p)  # the integral part, exact: m and p are exact below 2^53
    f = (m - i * p).astype(np.int64) * p10_int[4 + e]  # the fraction in units of 10^-18
    # five digits per chunk: 15 integer places from a leading 0, the ones
    # digit beside fraction places 1..3, then places 4..18 and the separator
    q11, q6, q1 = np.floor(i / 1e11), np.floor(i / 1e6), np.floor(i / 10)
    q15, q10, q5 = f // 10 ** 15, f // 10 ** 10, f // 10 ** 5
    row_end = np.zeros(x.size, np.intp)
    row_end[cols - 1::cols] = 1
    chunks = np.empty((x.size, 8), np.intp)
    chunks[:, 0] = q11
    chunks[:, 1] = q6 - q11 * 1e5
    chunks[:, 2] = q1 - q6 * 1e5
    chunks[:, 3] = (i - q1 * 10) * 1e4 + q15
    chunks[:, 4] = q10 - q15 * 100_000
    chunks[:, 5] = q5 - q10 * 100_000
    chunks[:, 6] = f - q5 * 100_000
    chunks[:, 7] = 100_000 + row_end
    grid = text.take(chunks).view(np.uint8).reshape(x.size, 40)
    grid[:, 16] = 46  # ".", over the ones chunk's 0 before fraction place 1
    n1, n4, n9, n14 = last.take(chunks[:, 3:7]).T  # fraction places shown: at least one
    places = np.maximum(np.maximum(n1 - 2, np.where(n4, n4 + 3, 1)),
                        np.maximum(np.where(n9, n9 + 8, 0), np.where(n14, n14 + 13, 0)))
    start = np.where(ok, 15 - np.maximum(e, 0), 16)
    neg = np.flatnonzero(ok & (x < 0))
    start[neg] -= 1
    grid.ravel()[neg * 40 + start[neg]] = 45  # "-"
    keep = masks.take((start * 18 + places - 1) * 2 + row_end, axis=0)
    out = np.compress(keep.ravel(), grid.ravel()).tobytes().decode("ascii")
    if not ok.all():
        bad = np.flatnonzero(~ok)
        size = np.where(ok, places + 17 - start, 0) + 2 + 2 * row_end
        pieces, at = [], 0
        for to, v in zip((np.cumsum(size) - size)[bad].tolist(), x[bad].tolist()):
            pieces += out[at:to], _float(v)
            at = to
        pieces.append(out[at:])
        out = "".join(pieces)
    return out[:-4]


def _run(xs) -> str:
    """", ".join(map(_float, xs)) for a sequence xs of floats."""
    if len(xs) >= _VECTOR_MIN and (np := sys.modules.get("numpy")) is not None:
        return ", ".join([_vector(np, np.array(xs[i:i + _BLOCK], dtype=float)[None])
                          for i in range(0, len(xs), _BLOCK)])
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


def _matrix(rows: list):
    """_encode(rows) for equal-length rows of floats, at least _VECTOR_MIN in all, where numpy
    is loaded, else None.  Each row is shorter than _VECTOR_MIN: a longer one is left to _run."""
    if (type(rows[0]) not in (list, tuple) or len(rows[0]) >= _VECTOR_MIN
            or len(rows) * len(rows[0]) < _VECTOR_MIN):
        return None
    np = sys.modules.get("numpy")
    if (np is None or not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1
            or set(map(type, chain.from_iterable(rows))) != {float}):
        return None
    step = _BLOCK // len(rows[0])
    return "[[" + "], [".join([_vector(np, np.array(rows[i:i + step], dtype=float))
                               for i in range(0, len(rows), step)]) + "]]"


def _encode(obj) -> str:
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + _run(obj) + "]"
        if set(map(type, obj)) == {dict} and (text := _records(obj)) is not None:
            return text
        if (text := _matrix(obj)) is not None:
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
