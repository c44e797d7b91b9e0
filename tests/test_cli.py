import hashlib
import io
import itertools
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logalg import (InvalidParameterError, InvariantError, StepFunction, holo, jsonio,
                    lognorm, orlicz_fnorm, selftest, witnesses)
from logalg.cli import VERBS, main
from test_stepfn import step_functions

E = math.e


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def step_json(*pieces, total="inf"):
    return json.dumps({"total_measure": total,
                       "pieces": [{"l": l, "r": r, "re": v, "im": 0.0}
                                  for l, r, v in pieces]})


def test_norm_verb(capsys):
    code, out, _ = run(capsys, "norm", "--input", step_json((0, 1, E - 1)))
    assert code == 0
    assert json.loads(out) == {"lognorm": 1.0}


def test_dist_verb(capsys):
    code, out, _ = run(capsys, "dist",
                       "--input", step_json((0, 1, 1)),
                       "--other", step_json((0, 1, 3)))
    assert code == 0
    assert json.loads(out)["dlog"] == pytest.approx(math.log(3))


def test_orlicz_round_trip_precision(capsys):
    payload = step_json((0, 0.5, 3))
    code, out, _ = run(capsys, "orlicz", "--input", payload)
    assert code == 0
    emitted = json.loads(out)["orlicz_fnorm"]
    direct = orlicz_fnorm(StepFunction.from_json(json.loads(payload)))
    assert emitted == pytest.approx(direct, rel=1e-14)


def test_rearrange_verb(capsys):
    code, out, _ = run(capsys, "rearrange",
                       "--input", step_json((0, 1, 1), (1, 2, 5)))
    assert code == 0
    assert json.loads(out)["steps"] == [{"w": 1.0, "h": 5.0}, {"w": 1.0, "h": 1.0}]


def test_op_norm_and_fkdet(capsys):
    matrix = json.dumps({"n": 2, "re": [[0, 2], [0, 0]], "im": [[0, 0], [0, 0]]})
    code, out, _ = run(capsys, "op-norm", "--input", matrix)
    assert code == 0
    assert json.loads(out)["lognorm"] == pytest.approx(math.log(3) / 2)
    code, out, _ = run(capsys, "fkdet", "--input", matrix)
    assert code == 0
    assert json.loads(out)["fk_determinant"] == 0.0


def test_dtau_verb(capsys):
    a = json.dumps({"n": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
    b = json.dumps({"n": 2, "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
    code, out, _ = run(capsys, "dtau", "--input", a, "--other", b)
    assert code == 0
    assert json.loads(out)["dtau"] == pytest.approx(0.5)


def test_split_round_trip(capsys):
    matrix = json.dumps({"n": 2, "re": [[3, 0], [0, 0.5]],
                         "im": [[0, 0], [0, 0]]})
    code, out, _ = run(capsys, "split", "--input", matrix, "--K", "1")
    assert code == 0
    parts = json.loads(out)
    assert parts["tail_part"]["re"][0][0] == pytest.approx(3.0)
    assert parts["bounded_part"]["re"][1][1] == pytest.approx(0.5)


def test_embed_verb(capsys):
    payload = json.dumps({"total_measure": 1.0,
                          "pieces": [{"l": 0, "r": 0.5, "re": 3, "im": 0}]})
    code, out, _ = run(capsys, "embed", "--input", payload, "--n", "2")
    assert code == 0
    assert json.loads(out)["re"] == [[3.0, 0.0], [0.0, 0.0]]


def test_nev_eval_verb(capsys):
    expr = json.dumps({"op": "singular", "s": 1.0})
    code, out, _ = run(capsys, "nev-eval", "--input", expr, "--re", "0")
    assert code == 0
    assert json.loads(out)["value"]["re"] == pytest.approx(math.exp(-1))


def test_nev_sweep_csv(capsys):
    expr = json.dumps({"op": "poly", "coeffs": [{"re": 0, "im": 0},
                                                {"re": 1, "im": 0}]})
    code, out, _ = run(capsys, "nev-sweep", "--input", expr, "--k-max", "4",
                       "--m", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,radial_mean"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 4
    for r, v in rows:
        assert v == pytest.approx(math.log1p(r), abs=1e-12)


def test_nev_smirnov_verb(capsys):
    expr = json.dumps({"op": "div",
                       "lhs": {"op": "poly", "coeffs": [{"re": 1, "im": 0}]},
                       "rhs": {"op": "singular", "s": 1.0}})
    code, out, _ = run(capsys, "nev-smirnov", "--input", expr)
    assert code == 0
    res = json.loads(out)
    assert not res["is_smirnov"]
    assert res["defect"] >= 0.5


def test_witness_nonconvex(capsys):
    payload = json.dumps({"total_measure": 1.0,
                          "pieces": [{"l": 0, "r": 1, "re": 1, "im": 0}]})
    code, out, _ = run(capsys, "witness", "nonconvex",
                       "--input", payload, "--eps", "0.1")
    assert code == 0
    assert json.loads(out)["n"] == 37


def test_witness_nonconvex_refuses_a_split_too_large(capsys):
    # eps = 1e-300 needs about 1e302 slices
    payload = json.dumps({"total_measure": 1.0,
                          "pieces": [{"l": 0, "r": 1, "re": 1, "im": 0}]})
    code, out, err = run(capsys, "witness", "nonconvex", "--input", payload, "--eps", "1e-300")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-parameter: eps = 1e-300 needs more than")


HUGE = step_json((0, 0.5, 1e308), total=1)
# a geometric tail with ratio 1 - 2^-40, whose extrapolated limit overflows
TAIL = json.dumps([json.loads(step_json((0, 1e-300, v), total=1))
                   for v in (1e297, 2e297, 2e297 + 1e297 * (1 - 2.0 ** -40))])
# finite parts whose difference 1.5e308 + 1.5e308i has a modulus beyond the doubles
COMPLEX_HUGE, COMPLEX_NEG = (json.dumps({"total_measure": 1, "pieces": [{"l": 0, "r": 0.5, "re": x, "im": x}]})
                             for x in (1e308, -5e307))


@pytest.mark.parametrize("argv", [
    ["dist", "--input", HUGE, "--other", step_json((0, 0.5, -1e308), total=1)],
    ["witness", "nonconvex", "--input", HUGE],
    ["cauchy", "--input", TAIL],
    ["op-dist", "--input", '{"n": 1, "re": [[1e308]]}', "--other", '{"n": 1, "re": [[-1e308]]}'],
    ["dtau", "--input", '{"n": 1, "re": [[1e308]]}', "--other", '{"n": 1, "re": [[-1e308]]}'],
    ["dist", "--input", COMPLEX_HUGE, "--other", COMPLEX_NEG],
    # finite values whose integral over [0, 1.7e308) overflows
    ["norm", "--input", step_json((0, 1.7e308, 1e308))],
])
def test_overflowing_result_is_an_invalid_parameter(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: invalid-parameter: value overflows a double\n"


def test_witness_nonbounded(capsys):
    code, out, _ = run(capsys, "witness", "nonbounded", "--eps", "1", "--N", "2")
    assert code == 0
    report = json.loads(out)
    assert report["valid"]
    assert report["K"] == 2.0


@pytest.mark.parametrize("record, argv, build", [
    ("ConvexSplit", ["witness", "nonconvex", "--input", step_json((0, 1, 1), total=1)],
     lambda: witnesses.convex_split(StepFunction([(0, 1, 1.0)], 1.0), 0.1)),
    ("UnboundednessWitness", ["witness", "nonbounded", "--eps", "1", "--N", "2"],
     lambda: witnesses.unboundedness_witness(1.0, 2)),
])
def test_witness_that_fails_its_check_exits_1(capsys, monkeypatch, record, argv, build):
    # main prints the record, then calls its verify()
    monkeypatch.setattr(getattr(witnesses, record), "verify", lambda self: False)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == jsonio.dumps(build().to_json()) + "\n"
    assert err == f"error: invariant-check: {record} failed its own check\n"


@pytest.mark.parametrize("argv, norms", [
    # f and f / N, for to_json's "valid" and main's verify() together
    (["witness", "nonbounded", "--eps", "1", "--N", "2"], lambda doc: 2),
    # each of the n slices, for "piece_norms" and verify() together, and n f twice
    (["witness", "nonconvex", "--input", step_json((0, 1, 1), total=1)], lambda doc: doc["n"] + 2),
])
def test_witness_records_compute_their_norms_once(capsys, monkeypatch, argv, norms):
    calls = []
    monkeypatch.setattr(witnesses, "lognorm", lambda f: calls.append(f) or lognorm(f))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == norms(json.loads(out))


def test_cauchy_verb(capsys):
    seq = []
    base = StepFunction.make([(0, 1, 3.0)], 1.0)
    for k in range(0, 5):
        from logalg import truncate
        seq.append(truncate(base, 2.0 ** k).to_json())
    code, out, _ = run(capsys, "cauchy", "--input", json.dumps(seq))
    assert code == 0
    res = json.loads(out)
    assert res["is_cauchy"]
    assert StepFunction.from_json(res["limit"]) == base


def test_malformed_input_exit_code(capsys):
    code, _, err = run(capsys, "norm", "--input", "{not json")
    assert code == 2
    assert err.startswith("error: malformed-input")


def test_domain_mismatch_exit_code(capsys):
    code, _, err = run(capsys, "dist",
                       "--input", step_json((0, 1, 1), total=1.0),
                       "--other", step_json((0, 1, 1), total=2.0))
    assert code == 2
    assert "domain-mismatch" in err


def test_invalid_parameter_exit_code(capsys):
    matrix = json.dumps({"n": 1, "re": [[1]], "im": [[0]]})
    code, _, err = run(capsys, "split", "--input", matrix, "--K", "-1")
    assert code == 2
    assert "invalid-parameter" in err


def test_norm_round_trip_15_digits(capsys):
    payload = step_json((0, 1 / 3, math.pi))
    code, out, _ = run(capsys, "norm", "--input", payload)
    assert code == 0
    emitted = json.loads(out)["lognorm"]
    exact = lognorm(StepFunction.from_json(json.loads(payload)))
    assert emitted == pytest.approx(exact, rel=1e-14)


def strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


HUGE_LINEAR = json.dumps({"op": "poly", "coeffs": [{"re": 1e308, "im": 0},
                                                    {"re": 1e308, "im": 0}]})


def test_nev_eval_overflow_refused(capsys):
    code, out, err = run(capsys, "nev-eval", "--input", HUGE_LINEAR, "--re", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-parameter")
    assert all(line.startswith("error: ") for line in err.splitlines())


def test_nev_eval_divides_by_a_polynomial_whose_zero_overflows(capsys):
    tree = json.dumps({"op": "div", "lhs": {"op": "poly", "coeffs": [{"re": 1}]},
                       "rhs": {"op": "poly", "coeffs": [{"re": 1e308}, {"re": 1e-300}]}})
    code, out, err = run(capsys, "nev-eval", "--input", tree)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"]["re"] == pytest.approx(1e-308, rel=1e-12)


def test_cauchy_not_cauchy_emits_strict_json(capsys):
    one = StepFunction.make([(0, 1, 1.0)], 1.0).to_json()
    zero = StepFunction.zero(1.0).to_json()
    code, out, _ = run(capsys, "cauchy", "--input", json.dumps([zero, one] * 2))
    assert code == 0
    res = strict_loads(out)
    assert res["is_cauchy"] is False
    assert res["limit_distance"] is None


def test_emission_refuses_non_finite():
    with pytest.raises(InvariantError):
        jsonio.dumps({"x": [1.0, math.nan]})
    with pytest.raises(InvariantError):
        jsonio.dumps({"x": complex(math.inf, 0)})


def test_largest_double_is_emitted_not_refused(capsys):
    # its 15-digit rounding, 1.79769313486232e+308, reads back as inf
    big = step_json((0, 1, 1.7976931348623157e308), total=1)
    code, out, err = run(capsys, "rearrange", "--input", big)
    assert (code, err) == (0, "")
    assert strict_loads(out) == {"steps": [{"w": 1.0, "h": 1.7976931348623157e308}]}


def test_witness_nonconvex_requires_input(capsys):
    code, out, err = run(capsys, "witness", "nonconvex")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid-parameter")


def test_missing_input_file_named(capsys):
    code, _, err = run(capsys, "norm", "--input", "/no/such/file.json")
    assert code == 2
    assert err.startswith("error: malformed-input")
    assert "/no/such/file.json" in err


def test_selftest_verb(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "3", "--trials", "25")
    assert code == 0
    lines = out.splitlines()
    names = [check.name for _, checks in selftest.CRITERIA for check in checks]
    assert lines == [f"[selftest] pass: {name}" for name in names] + \
        ["[selftest] all suites passed"]


def test_selftest_names_a_failing_check(capsys, monkeypatch):
    # a separation "sequence" that stays at k = 1 fails exactly one registry check
    first = selftest.witnesses.separation_sequence(1)
    monkeypatch.setattr(selftest.witnesses, "separation_sequence", lambda k: first)
    code, out, err = run(capsys, "selftest", "--seed", "0", "--trials", "2")
    assert code == 1
    assert "[selftest] FAIL: separation sequence: " in out
    assert sum(line.startswith("[selftest] FAIL") for line in out.splitlines()) == 1
    assert err == "error: invariant-check: selftest failed: separation sequence\n"


def test_nev_smirnov_of_huge_polynomial(capsys):
    # 1e308 (1 + z) has no zero inside the disk, so by Jensen's formula its
    # boundary norm is log(1e308) and it lies in the Smirnov class
    code, out, err = run(capsys, "nev-smirnov", "--input", HUGE_LINEAR)
    assert code == 0
    assert err == ""
    res = strict_loads(out)
    assert res["is_smirnov"] is True
    assert res["boundary_norm"] == pytest.approx(math.log(1e308), abs=1e-3)


@pytest.mark.parametrize("verb", ["nev-smirnov", "nev-sweep"])
def test_holo_verbs_refuse_overflow_with_one_line(capsys, verb):
    expr = json.dumps({"op": "div",
                       "lhs": {"op": "poly", "coeffs": [{"re": 1, "im": 0}]},
                       "rhs": {"op": "singular", "s": 1e308}})
    code, out, err = run(capsys, verb, "--input", expr)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid-parameter: value overflows a double")


def test_deeply_nested_tree_is_malformed(capsys):
    one = '{"op": "poly", "coeffs": [{"re": 1, "im": 0}]}'
    expr = '{"op": "mul", "lhs": ' * 5000 + one + (', "rhs": ' + one + '}') * 5000
    code, out, err = run(capsys, "nev-eval", "--input", expr)
    assert code == 2
    assert out == ""
    assert err == "error: malformed-input: input nests too deeply\n"


def test_embed_bound_is_n_8192(capsys):
    # n = 8192 passes the bound on its 2^30 bytes of entries and is refused
    # only for its piece, before anything is allocated
    tenth = step_json((0, 0.1, 1), total=1)  # a multiple of neither 1/8192 nor 1/8193
    status, _, err = run(capsys, "embed", "--input", tenth, "--n", "8192")
    assert status == 2 and "is not a multiple of 1/8192" in err
    status, out, err = run(capsys, "embed", "--input", tenth, "--n", "8193")
    assert (status, out) == (2, "")
    assert err == ("error: invalid-parameter: n x n complex entries must fit in "
                   "1073741824 bytes, so n <= 8192\n")


def count_evaluations(monkeypatch) -> list:
    """The point counts of every evaluation of a singular inner atom, from now on."""
    calls = []
    for name in ("logmod", "logpolar"):
        method = getattr(holo.SingularInner, name)
        monkeypatch.setattr(holo.SingularInner, name,
                            lambda self, z, method=method: calls.append(len(z)) or method(self, z))
    return calls


@pytest.mark.parametrize("argv, message", [
    (["--k-max", "60", "--m", "1048576"],
     "k-max must be from 1 to 53: beyond it 1 - 2^-k rounds to 1"),
    (["--m", "1" + "0" * 32], "grid size must be at most 4194304"),
])
def test_nev_sweep_refuses_before_it_evaluates(capsys, monkeypatch, argv, message):
    calls = count_evaluations(monkeypatch)
    status, out, err = run(capsys, "nev-sweep", "--input", '{"op": "singular", "s": 1}', *argv)
    assert (status, out, err) == (2, "", f"error: invalid-parameter: {message}\n")
    assert calls == []


def test_nev_sweep_reaches_k_53(capsys):
    code, out, _ = run(capsys, "nev-sweep", "--input", '{"op": "poly", "coeffs": [{"re": 1}]}',
                       "--k-max", "53", "--m", "16")
    assert code == 0
    assert out.splitlines()[-1] == f"{1 - 2.0 ** -53:.15g},{math.log(2):.15g}"


def test_nev_sweep_refuses_an_unevaluable_radius_before_any_row(capsys, monkeypatch):
    # 1 - 2^-44 lies within the guard of S_1's singularity at z = 1, and the
    # 43 rows below it are not evaluated first
    calls = count_evaluations(monkeypatch)
    status, out, err = run(capsys, "nev-sweep", "--input", '{"op": "singular", "s": 1}',
                           "--k-max", "44", "--m", "4096")
    assert (status, out) == (2, "")
    assert err.startswith("error: evaluation-at-singularity: ")
    assert len(err.splitlines()) == 1
    assert sum(calls) <= 4096


class Sentinel(Exception):
    """Raised by a stub that has been called more often than a refusal allows."""


def stub_after(monkeypatch, owner, name, calls=3):
    """Replace owner.name by a wrapper that raises Sentinel on its call past calls."""
    fn, count = getattr(owner, name), []

    def stub(*args, **kw):
        count.append(1)
        if len(count) > calls:
            raise Sentinel(f"{name} called {len(count)} times")
        return fn(*args, **kw)
    monkeypatch.setattr(owner, name, stub)


@pytest.mark.parametrize("argv, owner, name, message", [
    (["witness", "separation", "--k", "100000"], witnesses, "separation_sequence",
     "k must be at most 65536"),
    (["witness", "separation", "--k", str(2 ** 31)], witnesses, "separation_sequence",
     "k must be at most 65536"),
    (["selftest", "--trials", str(2 ** 31)], selftest, "random_step",
     "trials must be at most 1048576"),
])
def test_loop_counts_are_refused_before_any_work(capsys, monkeypatch, argv, owner, name, message):
    stub_after(monkeypatch, owner, name)
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (2, "", f"error: invalid-parameter: {message}\n")


STEP_1 = step_json((0, 0.5, 2), total=1)
MATRIX_2 = '{"n": 2, "re": [[1, 2], [0, 1]]}'
BLASCHKE = '{"op": "blaschke", "a": {"re": 0.5}}'
# small valid arguments of each verb with an int or float flag, one list per witness kind
FUZZ_BASES = {
    "project": [["--input", MATRIX_2, "--a=1"]],
    "split": [["--input", MATRIX_2]],
    "embed": [["--input", STEP_1]],
    "nev-eval": [["--input", BLASCHKE]],
    "nev-sweep": [["--input", BLASCHKE, "--k-max=2", "--m=64"]],
    "nev-smirnov": [["--input", BLASCHKE]],
    "witness": [["nonbounded"], ["nonconvex", "--input", STEP_1], ["separation", "--k=2"]],
    "cauchy": [["--input", f"[{STEP_1}, {STEP_1}]"]],
    "selftest": [["--trials=1"]],
}
INT_VALUES = ["0", "-1", str(2 ** 31), str(2 ** 63), "1" + "0" * 400]
FLOAT_VALUES = INT_VALUES + ["nan", "inf", "-inf", "5e-324", "1.8e308"]


def test_every_number_flag_takes_extreme_values(capsys):
    flags = {verb: {flag: kw["type"] for flag, kw in arguments if kw.get("type") in (int, float)}
             for verb, _, _, arguments, _ in VERBS}
    assert set(FUZZ_BASES) == {verb for verb, numbers in flags.items() if numbers}
    for verb, bases in FUZZ_BASES.items():
        for base, (flag, kind) in itertools.product(bases, flags[verb].items()):
            for value in INT_VALUES if kind is int else FLOAT_VALUES:
                # --flag=value, so that argparse reads "-inf" and "-1" as values
                argv = [verb, *(a for a in base if not a.startswith(f"{flag}=")), f"{flag}={value}"]
                status, out, err = run(capsys, *argv)
                assert status in (0, 1, 2), argv
                assert len(err.splitlines()) <= 1 and "Traceback" not in err, argv
                if out and verb not in ("selftest", "nev-sweep"):
                    strict_loads(out)


def test_embed_too_large_refused(capsys):
    # the 10^8 x 10^8 request is refused before anything is allocated
    payload = json.dumps({"total_measure": 1.0, "pieces": []})
    code, out, err = run(capsys, "embed", "--input", payload, "--n", "100000000")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


BIG = "1" + "0" * 400  # an integer literal no double can hold
OVERFLOWING = '{"n": 2, "re": [[1e308, 1e308], [1e308, 1e308]]}'  # sigma_max = 2e308 is inf


@pytest.mark.parametrize("argv, prefix", [
    (["norm", "--input", '{"total_measure": 1, "pieces": [{"l": "a", "r": 1, "re": 1}]}'],
     "malformed-input: "),
    (["norm", "--input", '{"total_measure": 1, "pieces": [{"l": null, "r": 1, "re": 1}]}'],
     "malformed-input: "),
    (["norm", "--input", '{"total_measure": 1, "pieces": [{"l": 0, "r": 1, "re": %s}]}' % BIG],
     "malformed-input: "),
    (["op-norm", "--input", '{"n": 1, "re": [[%s]]}' % BIG], "malformed-input: "),
    (["nev-eval", "--input", '{"op": "singular", "s": %s}' % BIG], "structure: "),
    (["nev-eval", "--input", '{"op": "singular", "s": 1}', "--re", "nan"],
     "invalid-parameter: evaluation point"),
    (["witness", "nonbounded", "--eps", "inf"], "invalid-parameter: eps"),
    (["selftest", "--seed", "-1"], "invalid-parameter: seed"),
    (["selftest", "--trials", "0"], "invalid-parameter: trials"),
    (["witness", "separation", "--k", "0"], "invalid-parameter: k must"),
    (["witness", "separation", "--k", "-1"], "invalid-parameter: k must"),
    (["nev-sweep", "--input", '{"op": "singular", "s": 1}', "--k-max", "0"],
     "invalid-parameter: k-max"),
    (["nev-sweep", "--input", '{"op": "singular", "s": 1}', "--k-max", "0", "--format", "json"],
     "invalid-parameter: k-max"),
    (["nev-eval", "--input", '{"op": "singular", "s": NaN}'],
     "invalid-parameter: singular inner weight must be finite"),
    (["nev-eval", "--input", '{"op": "poly", "coeffs": [{"re": 1e999}]}'],
     "invalid-parameter: polynomial coefficients must be finite"),
    (["nev-eval", "--input", '{"op": "poly", "coeffs": [{"re": 1.7e308, "im": 1.7e308}]}'],
     "invalid-parameter: polynomial coefficients must be finite"),
    (["norm", "--input", '{"total_measure": 1, "pieces": [{"l": 0, "r": 1, "re": 1.7e308, '
                         '"im": 1.7e308}]}'], "malformed-input: piece values must be finite"),
    (["op-norm", "--input", '{"n": 1, "re": [[1.7e308]], "im": [[1.7e308]]}'],
     "malformed-input: matrix entries must have a finite modulus"),
    (["op-norm", "--input", '{"n": 2.9, "re": [[1, 2], [0, 1]]}'], "malformed-input: "),
    (["op-norm", "--input", '{"n": "2", "re": [[1, 2], [0, 1]]}'], "malformed-input: "),
    (["op-norm", "--input", '{"n": true, "re": [[1]]}'], "malformed-input: "),
    (["nev-eval", "--input", '{"op": "foo"}'], "structure: unknown expression op 'foo'"),
    (["split", "--input", OVERFLOWING, "--K", "1"], "invalid-parameter: value overflows"),
    (["project", "--input", OVERFLOWING, "--a", "1"], "invalid-parameter: value overflows"),
    (["witness", "nonbounded", "--N", BIG], "invalid-parameter: N must be at most 2^511"),
    (["embed", "--input", '{"total_measure": 1, "pieces": []}', "--n", "1" + "0" * 21],
     "invalid-parameter: n x n complex entries must fit"),
    (["witness", "nonbounded", "--eps", "5e-324"], "invalid-parameter: eps 5e-324 is too small"),
    (["split", "--input", MATRIX_2, "--K", "inf"], "invalid-parameter: cutoff K must be positive and finite"),
    (["split", "--input", MATRIX_2, "--K=1e400"], "invalid-parameter: cutoff K must be positive and finite"),
    (["nev-eval", "--input", '{"op": "singular", "s": true}'],
     "structure: bad expression JSON: expected a number, not True"),
    (["nev-eval", "--input", '{"op": "singular", "s": "1"}'],
     "structure: bad expression JSON: expected a number, not '1'"),
    (["nev-eval", "--input", '{"op": "poly", "coeffs": [{"re": true}]}'],
     "structure: bad expression JSON: expected a number, not True"),
    (["nev-eval", "--input", '{"op": "blaschke", "a": {"re": 0.5, "im": "0"}}'],
     "structure: bad expression JSON: expected a number, not '0'"),
    (["nev-eval", "--input", '{"op": "rational", "num": [{"re": 1}], "den": [{"re": [1]}]}'],
     "structure: bad expression JSON: expected a number, not [1]"),
    (["norm", "--input", '{"total_measure": true, "pieces": [{"l": 0, "r": true, "re": 2}]}'],
     "malformed-input: bad StepFunction JSON: expected a number, not True"),
    (["norm", "--input", '{"total_measure": 1, "pieces": [{"l": "0", "r": 0.5, "re": 2}]}'],
     "malformed-input: bad StepFunction JSON: expected a number, not '0'"),
    (["norm", "--input", '{"total_measure": "1", "pieces": []}'],
     "malformed-input: bad StepFunction JSON: expected a number, not '1'"),
    (["cauchy", "--input", '[%s, {"total_measure": 1, "pieces": [{"l": 0, "r": 1, "re": true}]}]'
      % STEP_1], "malformed-input: bad StepFunction JSON: expected a number, not True"),
])
def test_refused_input_exits_2_with_one_line(capsys, argv, prefix):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {prefix}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_input_that_is_not_utf8_is_malformed(capsys, monkeypatch, tmp_path, via):
    data = b'{"total_measure": 1, "pieces": [{"l": 0, "r": 1, "re": 1}], "note": "\xff"}'
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    status, out, err = run(capsys, "norm", "--input", str(path) if via == "file" else "-")
    assert (status, out) == (2, "")
    assert err.startswith("error: malformed-input: ")
    assert len(err.splitlines()) == 1


def test_op_norm_of_an_overflowing_sigma_max_is_not_finite(capsys):
    # sigma_max = 2e308 of finite entries: no finite log-norm, not the 0.0 of T = 0
    matrix = '{"n": 2, "re": [[1e308, 1e308], [1e308, 1e308]]}'
    status, out, err = run(capsys, "op-norm", "--input", matrix)
    assert (status, out) == (1, "")
    assert err.startswith("error: invariant-check: result is not finite")
    assert len(err.splitlines()) == 1


def test_scale_to_lognorm_of_zero_is_refused():
    # lognorm(c * 0) = 0 stays below the target for every c
    with pytest.raises(InvalidParameterError):
        selftest.scale_to_lognorm(StepFunction.zero(1.0), 0.5)


KEYS = ("total_measure", "pieces", "l", "r", "re", "im", "n")
MALFORMED = [
    {"total_measure": 1, "pieces": [{"l": "a", "r": 1, "re": 1}]},
    {"total_measure": 1, "pieces": [{"l": None, "r": 1, "re": 1}]},
    {"total_measure": 1, "pieces": [{"l": 0, "r": 1, "re": 10 ** 400}]},
    {"total_measure": 10 ** 400, "pieces": []},
    {"n": 1, "re": [[10 ** 400]]},
    {"n": 2, "re": [[1, 2], [3]]},
    {"total_measure": 1}, {"pieces": []}, {"n": 1},
]
junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner),
    max_leaves=8)
matrices = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "re": st.lists(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
                   min_size=n, max_size=n)}))
steps = step_functions().map(StepFunction.to_json)
documents = (steps | st.lists(steps, max_size=4) | matrices | st.sampled_from(MALFORMED)
             | junk.filter(lambda d: isinstance(d, (dict, list))))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["norm", "dist", "orlicz", "rearrange", "embed", "cauchy", "op-norm"]),
       documents, st.data())
def test_any_document_gives_an_exit_code_and_strict_output(verb, doc, data):
    argv = [verb, "--input", json.dumps(doc)]
    if verb == "dist":
        argv += ["--other", json.dumps(data.draw(documents))]
    if verb == "embed":
        argv += ["--n", str(data.draw(st.integers(1, 8)))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if out.getvalue():
        strict_loads(out.getvalue())
    assert all(line.startswith("error: ") for line in err.getvalue().splitlines())


# Fixed inputs for the stdout golden test: values with 15 and more significant
# digits, small and large magnitudes, integral floats and complex entries.
GOLD_F = json.dumps({"total_measure": 1, "pieces": [
    {"l": 0, "r": 0.125, "re": math.pi, "im": -1 / 7},
    {"l": 0.125, "r": 0.4, "re": -1 / 3, "im": 0},
    {"l": 0.4, "r": 0.75, "re": 2.5e-7, "im": 1e-5},
    {"l": 0.75, "r": 1, "re": 12345.678901234567, "im": 2}]})
GOLD_G = json.dumps({"total_measure": 1, "pieces": [
    {"l": 0, "r": 0.3, "re": math.e, "im": 0},
    {"l": 0.3, "r": 0.9, "re": 0.1, "im": -0.2}]})
# diagonal, so that its singular values and vectors are exact
GOLD_A = json.dumps({"n": 3, "re": [[3, 0, 0], [0, 1.5e15, 0], [0, 0, -1 / 3]],
                     "im": [[4, 0, 0], [0, 0, 0], [0, 0, 1e-300]]})
GOLD_B = json.dumps({"n": 3, "re": [[1, 2, 3], [0, 0.25, -1], [4e-3, 0, 9.75]],
                     "im": [[0.1, 0, 0], [0, -0.3, 0], [0, 0, 1 / 9]]})
GOLD_TREE = json.dumps({"op": "mul", "lhs": {"op": "blaschke", "a": {"re": 0.3, "im": -0.2}},
                        "rhs": {"op": "poly", "coeffs": [{"re": 1, "im": 0},
                                                         {"re": 0.5, "im": 0.25}]}})
GOLD_Q = json.dumps({"total_measure": 1, "pieces": [
    {"l": 0, "r": 0.25, "re": 1e15, "im": 5e-324},
    {"l": 0.25, "r": 0.5, "re": 2.225073858507201e-308, "im": -0.0},
    {"l": 0.5, "r": 1, "re": 9.999999999999995e14, "im": 123456789012345.0}]})
GOLD_SEQ = json.dumps([{"total_measure": 1, "pieces": [
    {"l": 0, "r": 0.5, "re": min(math.pi, 2.0 ** k)}, {"l": 0.5, "r": 1, "re": -1 / 3}]}
    for k in range(-2, 4)])
# a seeded 128 x 128 integer matrix (114 kB, within one argv string of a
# subprocess), whose projection of 2 x 16,384 floats jsonio prints vectorized
_M128 = np.random.default_rng(28).integers(-9, 10, (2, 128, 128))
GOLD_M128 = json.dumps({"n": 128, "re": _M128[0].tolist(), "im": _M128[1].tolist()})


# GOLD_A: sigma = |3 + 4i| = 5 lies above the rank noise floor 1.5e15 * 3 * eps ~ 1.0,
# sigma = 1/3 below it
def test_split_of_gold_a_puts_3_4i_in_the_tail(capsys):
    code, out, _ = run(capsys, "split", "--input", GOLD_A, "--K", "2")
    assert code == 0
    parts = json.loads(out)
    tail, bounded = parts["tail_part"], parts["bounded_part"]
    assert (tail["re"][0][0], tail["im"][0][0]) == pytest.approx((3, 4), rel=1e-12)
    assert (bounded["re"][0][0], bounded["im"][0][0]) == pytest.approx((0, 0), abs=1e-12)


def test_project_of_gold_a_has_trace_2_3(capsys):
    code, out, _ = run(capsys, "project", "--input", GOLD_A, "--a", "0.5")
    assert code == 0
    p = json.loads(out)
    assert sum(p["re"][i][i] for i in range(3)) / 3 == pytest.approx(2 / 3, rel=1e-12)


def test_printed_projection_is_exactly_hermitian(capsys):
    code, out, _ = run(capsys, "project", "--input", GOLD_B, "--a", "1")
    assert code == 0
    p = json.loads(out)
    re, im = p["re"], p["im"]
    assert re == [list(row) for row in zip(*re)]
    assert im == [[-x for x in row] for row in zip(*im)]
    assert [im[i][i] for i in range(3)] == [0.0] * 3


# sha256 of stdout, recorded with the json.dumps-based emitter that rounded
# each float through float(f"{x:.15g}") before printing it; the GOLD_A op-dist,
# dtau, project and split digests re-recorded when singular values at or below
# sigma_max * n * eps, in place of 1e-12 * sigma_max, became the exact zeros;
# the GOLD_B project digest re-recorded when spectral_project became exactly
# Hermitian, which turned its diagonal's imaginary rounding noise into 0.0
GOLDEN = [
    (["norm", "--input", GOLD_F],
     "924486bf6327683dcc2c52b3565d64016e58467c6139aefca455701a9c48e77e"),
    (["dist", "--input", GOLD_F, "--other", GOLD_G],
     "6d9ef38bba6249cc31ff482e3abe70cdb1293a6e699864968df9fbeadc396182"),
    (["orlicz", "--input", GOLD_F],
     "3c837e6b31fc2190c1b4f0a2f8e06e52f95fce49705d417021da0e5c572be84a"),
    (["rearrange", "--input", GOLD_F],
     "8e1edeaaba08bfa784e0c192f3c1aa5d9d58964728cf6c37102c86fbacde7ba6"),
    (["op-norm", "--input", GOLD_B],
     "9cb3b3465df8ee4b83444d8aafb9c3781e127e430fe76e542f68beee3e7e86a9"),
    (["op-dist", "--input", GOLD_A, "--other", GOLD_B],
     "373c44bb3522cf0815cf31c6a2b52a56e0512bb39e8c3867302f637c9a180532"),
    (["dtau", "--input", GOLD_A, "--other", GOLD_B],
     "a7811f39815c9482253fcf0b9f3260e9fef52cf7eb48bfd7569c56cd079469e4"),
    (["project", "--input", GOLD_A, "--a", "0.5"],
     "01ff23c42f71ce0eabdbbd4ccd67cc195a53d571bac5ad56f063099b95cf63b1"),
    (["project", "--input", GOLD_B, "--a", "1"],
     "6d7e823faabc2fd821affbeb8bdfa903265efbc0eeab9709d1f0d182173096c2"),
    (["split", "--input", GOLD_A, "--K", "2"],
     "f9c15065521b4f83e4b643c8e534d1359cc5a200d98a3ce2329dddc33d4bed1c"),
    (["fkdet", "--input", GOLD_B],
     "50bc670343f1f2340717651561961772df7a08506132f7d404ddffda6ea3529c"),
    (["embed", "--input", GOLD_Q, "--n", "4"],
     "cac312e315a9d56cc3b011883d17aae37e35533f0b974510708614d077a6d045"),
    (["nev-eval", "--input", GOLD_TREE, "--re", "0.3", "--im", "0.4"],
     "0eeae358e3fd9f966191b97f4ff63a40dc399cf4a95c2dd87a1cead640c6e97e"),
    (["nev-sweep", "--input", GOLD_TREE, "--k-max", "4", "--m", "256", "--format", "json"],
     "c01565cb7342ec6f1b98657cdd1b1a0c50c6cb5cd8ca624fd6b3bdccb69d26c8"),
    (["nev-sweep", "--input", GOLD_TREE, "--k-max", "4", "--m", "256"],
     "9399b0e2517a55fd9c4fc5ce842835e1a22e9b46f99e4095573252ce48382a9e"),
    (["nev-smirnov", "--input", GOLD_TREE, "--tol", "1e-3"],
     "39d980935222f3181ba93ecdabb05b833b6aee83c278cfd7e286978ebfe6ee46"),
    (["witness", "nonbounded", "--eps", "0.1", "--N", "3"],
     "276cc64916f249a3da8c34faaf4729d69c864a1960ab9d20ae91b20acdcacc20"),
    (["witness", "nonconvex", "--input", GOLD_G, "--eps", "0.2"],
     "e8c1829c2e761e8d2308c7aa7873bece1688e54c0bc69b0692475bb323d657ac"),
    (["witness", "separation", "--k", "5"],
     "789c4806d6e62e4e3632a067a7f17bbb6fcb01eddb33b20035a1cb5e1b9ae15a"),
    (["cauchy", "--input", GOLD_SEQ],
     "ba541181765d32f0f11b2ead362b644d1c4a776bf95aabf07bcd703d09248cdc"),
    # recorded with the %-format emitter, before the vectorized path existed
    (["project", "--input", GOLD_M128, "--a", "60"],
     "0e78b0610336e26af5870802b7a87e253bb71913db5d1441e9383a9faedb7388"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(GOLDEN)])
def test_stdout_matches_the_recorded_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
