import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from logalg import InvariantError, jsonio

BIG = sys.float_info.max


# ------------------------------------------------------------------ oracle
# The emitter that one-pass formatting replaced: round every float through
# float(f"{x:.15g}"), then let json.dumps print the rounded tree with repr.

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


def oracle(obj) -> str:
    return json.dumps(_walk(obj), allow_nan=False)


EDGES = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e15, 1.5e15,
         9.999999999999995e14, 999999999999999.4, 1e16, 1e-5, 1e22, 2.0 ** 53,
         123456789012345.0, 1e-4, 9.99999999999999e-5, 1e-307, 1e300, 1.5e308]


@pytest.mark.parametrize("x", EDGES + [-x for x in EDGES])
def test_edge_values_match_the_oracle(x):
    for doc in (x, [x], [1, x], complex(x, -x), {"v": x}, np.float64(x), [np.float64(x)]):
        assert jsonio.dumps(doc) == oracle(doc)


def test_every_binary_exponent_matches_the_oracle():
    # random mantissas at every exponent, subnormals included, plus the
    # neighbours of each power of ten, where the 15-digit rounding changes decade
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 63, 20_000, dtype=np.uint64)
    tens = np.array([10.0 ** e for e in range(-323, 309)])
    near = np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf),
                           tens * (1 - 5e-16), tens * (1 + 5e-16)])
    values = np.concatenate([bits.view(np.float64), near, -near]).tolist()
    values = [x for x in values if math.isfinite(x) and math.isfinite(_round15(x))]
    assert jsonio.dumps(values) == oracle(values)


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)
leaves = (st.none() | st.booleans() | st.integers() | st.text() | finite
          | finite.map(np.float64) | st.builds(complex, finite, finite)
          | st.lists(finite) | st.tuples(finite, finite))
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=250, deadline=None)
@given(documents)
def test_output_is_the_oracle_bytes(doc):
    try:
        expected = oracle(doc)
    except ValueError:  # a float whose rounding overflows; see the test below
        reject()
    assert jsonio.dumps(doc) == expected


def test_a_rounding_that_overflows_prints_the_value_itself():
    for x in (BIG, -BIG, float(np.nextafter(BIG, 0))):
        assert jsonio.dumps(x) == repr(x)
        assert json.loads(jsonio.dumps([x, complex(0, x)])) == [x, {"re": 0.0, "im": x}]


NON_FINITE = [math.nan, math.inf, -math.inf]
PLACES = [lambda x: x, lambda x: [x, 1.0, 2.0], lambda x: [1.0, x, 2.0],
          lambda x: [1.0, 2.0, x], lambda x: complex(x, 0), lambda x: complex(0, x),
          lambda x: {"k": [1, np.float64(x)]}]


@pytest.mark.parametrize("x", NON_FINITE, ids=repr)
@pytest.mark.parametrize("place", range(len(PLACES)))
def test_non_finite_is_refused(x, place):
    with pytest.raises(InvariantError, match="result is not finite"):
        jsonio.dumps(PLACES[place](x))


# ------------------------------------------------------ runs and record lists
# A list of floats, and a list of dicts with the same keys and float values,
# are each formatted as one run; everything else goes element by element.

OVERFLOWS = [BIG, -BIG, float(np.nextafter(BIG, 0))]  # their 15-digit rounding is inf
PLANTS = (st.integers(-10 ** 6, 10 ** 6).map(float)
          | st.sampled_from([1e-05, -3e-05, 1e-07, 2e-300] + EDGES + [-x for x in EDGES] + OVERFLOWS))


def _values(size: int, seed: int) -> list:
    """size floats: random bit patterns (the finite ones) and normal draws of every scale."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64)
    normal = rng.normal(0, 10, size) * 10.0 ** rng.integers(-20, 20, size)
    return np.where(np.isfinite(bits) & (rng.random(size) < 0.3), bits, normal).tolist()


def _expected_run(xs) -> str:
    """oracle(xs), but with a value's own repr where its rounding overflows."""
    return "[" + ", ".join(repr(x) if math.isinf(_round15(x)) else oracle(x) for x in xs) + "]"


runs = st.builds(_values, st.integers(1, 600), st.integers(0, 2 ** 32 - 1))
plants = st.lists(st.tuples(st.integers(0, 599), PLANTS), max_size=6)


@settings(max_examples=150, deadline=None)
@given(runs, plants)
def test_a_float_run_matches_the_oracle(xs, planted):
    for i, x in planted:
        xs[i % len(xs)] = x
    assert jsonio.dumps(xs) == jsonio.dumps(tuple(xs)) == _expected_run(xs)
    assert jsonio.dumps({"rows": [xs, xs[::-1]]}) == \
        '{"rows": [' + _expected_run(xs) + ", " + _expected_run(xs[::-1]) + "]}"


KEYS = st.lists(st.sampled_from(["l", "r", "re", "im", "%", "%s", "%.15g", "a.b", "e", "e-3", "n", "nan", ", "]),
                min_size=1, max_size=5, unique=True)
SPOILS = {"reordered": lambda d: dict(reversed(list(d.items()))),
          "extra key": lambda d: {**d, "extra": 1.5},
          "int value": lambda d: {**d, next(iter(d)): 1},
          "np.float64 value": lambda d: {k: np.float64(v) for k, v in d.items()}}


@settings(max_examples=150, deadline=None)
@given(KEYS, st.integers(1, 40), st.integers(0, 2 ** 32 - 1), plants,
       st.sampled_from([None] + list(SPOILS)), st.integers(0, 39))
def test_a_record_list_matches_the_oracle(keys, m, seed, planted, spoil, at):
    values = _values(m * len(keys), seed)
    for i, x in planted:
        if x not in OVERFLOWS:  # the oracle cannot print these; the float runs above can
            values[i % len(values)] = x
    ds = [dict(zip(keys, values[j * len(keys):(j + 1) * len(keys)])) for j in range(m)]
    if spoil is not None:
        ds[at % m] = SPOILS[spoil](ds[at % m])
    assert jsonio.dumps(ds) == oracle(ds)
    assert jsonio.dumps({"pieces": ds, "n": m}) == oracle({"pieces": ds, "n": m})


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 2399), st.sampled_from(NON_FINITE)), min_size=1, max_size=3),
       st.booleans())
def test_non_finite_in_a_run_names_the_first_in_document_order(size, seed, planted, as_records):
    xs = _values(size, seed)
    first = {}
    for i, x in planted:
        first.setdefault(i % size, x)
        xs[i % size] = first[i % size]
    doc = [{"l": a, "re": b} for a, b in zip(xs[::2], xs[1::2])] if as_records else xs
    if as_records and size % 2:
        first.pop(size - 1, None)  # the odd last value is in no record
    if not first:
        return
    with pytest.raises(InvariantError) as exc:
        jsonio.dumps(doc)
    assert str(exc.value) == f"result is not finite: {first[min(first)]}"
