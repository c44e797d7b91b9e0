import json
import math

import pytest

from logalg import InvariantError, StepFunction, jsonio, lognorm, orlicz_fnorm, selftest
from logalg.cli import main

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


def test_witness_nonbounded(capsys):
    code, out, _ = run(capsys, "witness", "nonbounded", "--eps", "1", "--N", "2")
    assert code == 0
    report = json.loads(out)
    assert report["valid"]
    assert report["K"] == 2.0


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


def test_embed_too_large_refused(capsys):
    # the 10^8 x 10^8 request is refused before anything is allocated
    payload = json.dumps({"total_measure": 1.0, "pieces": []})
    code, out, err = run(capsys, "embed", "--input", payload, "--n", "100000000")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
