import json
import math
import os
import subprocess
import sys
from decimal import ROUND_FLOOR, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, reject, settings
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


# ------------------------------------------------------- the vectorized path
# With numpy loaded, a run of at least _VECTOR_MIN floats, and a matrix of
# equal-length float rows with that many, go through jsonio._vector in blocks
# of about _BLOCK floats; the bytes are those of the oracle.

def _hard_values(size: int, seed: int) -> list:
    """size floats, drawn where 15-digit rounding is hardest: random bits, every
    decade, ±0.0, subnormals, the 1e15 and 1e-4 edges, the neighbours of powers
    of ten, exact ties j + 1/2, the doubles nearest decimal ties and their
    neighbours, and 99999.99999999994 (whose rounding 1e5 lies in the decade below)."""
    rng = np.random.default_rng(seed)
    few = min(size, 500)
    near_ties = np.array([float(f"{j}5e{s}") for j, s in
                          zip(rng.integers(10 ** 14, 10 ** 15, few).tolist(), rng.integers(-22, 3, few).tolist())])
    tens = 10.0 ** np.arange(-6, 17)
    edges = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 99999.99999999994, 1e-4,
                      9.99999999999999e-5, 1e15, 999999999999999.4, 999999999999999.5, BIG])
    pool = np.concatenate([
        rng.integers(0, 2 ** 64, few, dtype=np.uint64).view(np.float64),
        rng.uniform(1, 10, few) * 10.0 ** rng.integers(-8, 17, few),
        near_ties, np.nextafter(near_ties, 0), np.nextafter(near_ties, np.inf),
        rng.integers(10 ** 14, 10 ** 15, few) + 0.5,
        edges, np.nextafter(edges, 0), np.nextafter(edges[:-1], np.inf), tens, np.nextafter(tens, 0)])
    pool = pool[np.isfinite(pool)]
    return (rng.choice(pool, size) * rng.choice([-1.0, 1.0], size)).tolist()


def _first_difference(text: str, expected: str):
    """None where text == expected, else both around their first difference
    (pytest's own diff of texts this long takes minutes)."""
    if text == expected:
        return None
    i = next((j for j, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
    return text[max(i - 60, 0):i + 60], expected[max(i - 60, 0):i + 60]


def _vectorized(doc) -> tuple:
    """jsonio.dumps(doc) and the number of floats that went through jsonio._vector."""
    with mock.patch.object(jsonio, "_vector", wraps=jsonio._vector) as vector:
        text = jsonio.dumps(doc)
    return text, sum(call.args[1].size for call in vector.call_args_list)


# shrinking a run of thousands of floats takes minutes; its (size, seed) already reproduces it
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]
SIZES = (st.sampled_from([jsonio._VECTOR_MIN - 1, jsonio._VECTOR_MIN, jsonio._BLOCK, jsonio._BLOCK + 1])
         | st.integers(jsonio._VECTOR_MIN, jsonio._BLOCK + 3))


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(SIZES, st.integers(0, 2 ** 32 - 1))
def test_a_long_float_run_matches_the_oracle(size, seed):
    xs = _hard_values(size, seed)
    text, vectorized = _vectorized(xs)
    assert _first_difference(text, _expected_run(xs)) is None
    assert vectorized == (size if size >= jsonio._VECTOR_MIN else 0)


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(st.sampled_from([1, 2, 7, 512, jsonio._BLOCK + 5]), SIZES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_a_matrix_matches_the_oracle(cols, size, seed, zero_diagonal):
    flat = _hard_values(max(size // cols, 1) * cols, seed)
    rows = [flat[i:i + cols] for i in range(0, len(flat), cols)]
    if zero_diagonal:  # as in the imaginary part of a Hermitian matrix
        for i, row in enumerate(rows):
            row[i % cols] = 0.0
    expected = "[" + ", ".join(map(_expected_run, rows)) + "]"
    text, vectorized = _vectorized({"re": rows})
    assert _first_difference(text, '{"re": ' + expected + "}") is None
    assert vectorized == (len(flat) if len(flat) >= jsonio._VECTOR_MIN else 0)


def test_the_rounding_that_leaves_its_decade_is_the_one_below():
    # 99999.99999999994 * 10^9 rounds to m = 10^14 from below: its 15 digits
    # are those of the decade below, 99999.9999999999, not 100000.0
    for x in (99999.99999999994, 0.9999999999999996, 9.999999999999996e-4):
        xs = [x] * jsonio._VECTOR_MIN
        assert _first_difference(jsonio.dumps(xs), _expected_run(xs)) is None


def _tied(x: float) -> bool:
    """Whether x times 10^(14 - e), e its exact decimal exponent, lies within 2^-20 of j + 1/2."""
    t = Decimal(x).scaleb(14 - Decimal(x).adjusted())
    return abs(t - t.to_integral_value(ROUND_FLOOR) - Decimal("0.5")) < Decimal(2) ** -20


def _near_ties() -> list:
    """Doubles x = M 2^-(s+k) with x 10^k near 3e14 and M 5^k = 2^(s-1) ± 1 modulo 2^s:
    x 10^k lies 2^-s from a half, within 2^-20 for s > 20, yet is not one."""
    xs = []
    for s in range(21, 60):
        for k in range(19):
            for d in (1, -1):
                residue = (2 ** (s - 1) + d) * pow(5, -k, 2 ** s) % 2 ** s
                M = 3 * 10 ** 14 * 2 ** s // 5 ** k
                M -= (M - residue) % 2 ** s
                if 0 < M < 2 ** 53:
                    xs.append(math.ldexp(M, -(s + k)))
    return xs


def test_the_kernel_prints_every_value_of_its_range_itself():
    # only ±0.0, |x| < 1e-4, |x| >= 1e15, (near-)ties and non-finite values go to _float,
    # each once and in order.  Accepting a near-tie (|r| < 0.5 in place of 0.5 - 2^-20)
    # would keep these bytes, as the residual is exact up to a monotone rounding, but
    # it would move the near-ties into the kernel.
    rng = np.random.default_rng(11)
    near = _near_ties()
    inside = (rng.uniform(1, 10, 20_000) * 10.0 ** rng.integers(-4, 15, 20_000)).tolist() + near
    outside = [0.0, -0.0, 9.99e-5, -1e-300, 1e15, -1.5e300, 123456789012345.5, 999999999999999.6]
    with mock.patch.object(jsonio, "_float", wraps=jsonio._float) as scalar:
        assert _first_difference(jsonio.dumps(inside + outside), oracle(inside + outside)) is None
    ties = [x for x in inside if _tied(x)]
    assert len(near) > 100 and ties[-len(near):] == near and len(ties) < 200 + len(near)
    assert [call.args[0] for call in scalar.call_args_list] == ties + outside


def test_a_near_tie_is_rounded_from_its_exact_value():
    # 1.000000000000005 is the double nearest that decimal tie; it lies just above it
    x = 1.000000000000005
    assert x * 10 ** 14 != 100000000000000.5 and _round15(x) == 1.00000000000001
    xs = [x, -x] * jsonio._VECTOR_MIN
    assert _first_difference(jsonio.dumps(xs), oracle(xs)) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(jsonio._VECTOR_MIN, 2 * jsonio._BLOCK + 3), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 2 ** 20), st.sampled_from(NON_FINITE)), min_size=1, max_size=3),
       st.sampled_from([None, 1, 512]))
def test_non_finite_in_a_long_run_names_the_first_in_document_order(size, seed, planted, cols):
    xs = _values(size, seed)
    first = {}
    for i, x in planted:
        first.setdefault(i % size, x)
        xs[i % size] = first[i % size]
    doc = xs if cols is None else [xs[i:i + cols] for i in range(0, size - size % cols, cols)]
    first = {i: x for i, x in first.items() if cols is None or i < size - size % cols}
    if not first:
        return
    with pytest.raises(InvariantError) as exc:
        jsonio.dumps(doc)
    assert str(exc.value) == f"result is not finite: {first[min(first)]}"


def test_a_long_run_without_numpy_loaded_does_not_load_it():
    script = ("import sys; from logalg import jsonio; text = jsonio.dumps([0.1] * 50_000); "
              "print('numpy' in sys.modules, text == '[' + ', '.join(['0.1'] * 50_000) + ']')")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "False True\n"), proc.stderr


def test_jsonio_has_no_numpy_import():
    with open(jsonio.__file__) as f:
        assert "import numpy" not in f.read()
