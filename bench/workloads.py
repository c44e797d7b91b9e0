"""Operation lists of the four workloads and the check of every operation.

``load`` is the timed set-up: it parses the generated inputs through the
program.  ``build`` returns one round of operations; a run repeats whole
rounds.  Each operation is a library call followed by the JSON emission a
user would see, or one ``python -m logalg.cli`` process for cli-verbs.
Module functions are looked up at call time (``stepfn.dlog``, not a bound
name) so that the traced run can wrap them.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from checks import Step, close

@dataclass
class Outcome:
    value: object = None          # the library result, or a CompletedProcess
    doc: object = None            # what was passed to jsonio.dumps
    text: str | None = None       # the emitted JSON
    error: BaseException | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome, dict], bool]
    fault: bool = False           # a known program fault: counted as failed until fixed


@dataclass
class Inputs:
    workdir: str
    docs: dict = field(default_factory=dict)      # raw JSON documents by file stem
    objs: dict = field(default_factory=dict)      # program objects built from them


def _read(workdir: str, stem: str):
    with open(os.path.join(workdir, "inputs", stem + ".json")) as fh:
        return json.load(fh)


def _stems(workdir: str) -> list:
    return sorted(f[:-5] for f in os.listdir(os.path.join(workdir, "inputs")) if f.endswith(".json"))


# --------------------------------------------------------------------- set-up

def load(workload: str, workdir: str) -> Inputs:
    """Import logalg and parse every input through it (the timed set-up)."""
    import logalg  # noqa: F401  (the import is part of set-up)
    from logalg import holo, operators, stepfn, selftest

    inp = Inputs(workdir)
    for stem in _stems(workdir):
        inp.docs[stem] = doc = _read(workdir, stem)
        if workload == "cli-verbs" or stem == "inv_z":
            continue  # parsed by the CLI processes, or by the operation itself
        if workload == "stepfn-refine":
            inp.objs[stem] = ([stepfn.StepFunction.from_json(d) for d in doc]
                              if isinstance(doc, list) else stepfn.StepFunction.from_json(doc))
        elif workload == "operators-svd":
            if stem.startswith("e"):
                inp.objs[stem] = stepfn.StepFunction.from_json(doc)
            elif isinstance(doc, list):
                inp.objs[stem] = [operators.MatrixOperator.from_json(d) for d in doc]
            else:
                inp.objs[stem] = operators.MatrixOperator.from_json(doc)
        else:
            inp.objs[stem] = holo.from_json(doc)
    if workload == "cli-verbs":
        import logalg.cli  # noqa: F401
    if workload == "holo-quadrature":
        inp.objs["corpus"] = selftest.nevanlinna_corpus()
    return inp


# --------------------------------------------------------------------- in-process helpers

def _call(fn, emit=None) -> Callable[[], Outcome]:
    """An operation: fn() then, if emit is given, jsonio.dumps(emit(result))."""
    from logalg import jsonio

    def run():
        value = fn()
        if emit is None:
            return Outcome(value)
        doc = emit(value)
        return Outcome(value, doc, jsonio.dumps(doc))
    return run


def _scalar(key):
    return lambda v: {key: v}


def _to_json(v):
    return v.to_json()


def _float_check(ref, rtol, atol=0.0):
    return lambda o, _: close(o.value, ref, rtol, atol)


# --------------------------------------------------------------------- stepfn-refine

def _stepfn_ops(inp: Inputs, refs: dict) -> list:
    from logalg import stepfn, witnesses
    eps = refs["refs"]["eps"]
    ops = []
    for p in refs["sizes"]["stepfn_pieces"]:
        fd, gd = inp.docs[f"f{p}"], inp.docs[f"g{p}"]
        f, g = inp.objs[f"f{p}"], inp.objs[f"g{p}"]
        F, G = Step(fd), Step(gd)

        def same_pieces(o, _, F=F):
            return o.value.pieces == tuple(F.pieces())

        def pointwise_ok(o, _, want, F=F, G=G):
            h = Step.of(o.value.pieces)
            x, _w = checks.refinement(F, G, h)
            bound = 1e-14 * (np.abs(F.at(x)) + 1) * (np.abs(G.at(x)) + 1)
            return bool(np.all(np.abs(h.at(x) - want(F.at(x), G.at(x))) <= bound))

        def orlicz_ok(o, _, F=F):
            lam = o.value
            return isinstance(lam, float) and lam > 0 and \
                abs(checks.lognorm(F, 1.0 / lam) - lam) <= 1e-9 * max(1.0, lam)

        def rearrangement_ok(o, _, F=F):
            return checks.is_rearrangement(o.value.steps, F, 1e-14)

        def convex_ok(o, _, F=F):
            split = o.value
            n = split.n
            if not (checks.lognorm(F, n) / n < eps and (n == 1 or checks.lognorm(F, n - 1) / (n - 1) >= eps)):
                return False
            target = checks.lognorm(F, n) / n
            parts = [Step.of(q.pieces) for q in split.pieces]
            if not all(math.isclose(checks.lognorm(q), target, rel_tol=1e-9) for q in parts):
                return False
            bp = split.breakpoints
            if bp[0] != 0.0 or bp[-1] != 1.0 or any(b < a for a, b in zip(bp, bp[1:])):
                return False
            x, _w = checks.refinement(F, *parts)
            total = sum(q.at(x) for q in parts)
            return bool(np.allclose(total, n * F.at(x), rtol=1e-14, atol=0))

        ops += [
            Op(f"from_json/{p}", _call(lambda fd=fd: stepfn.StepFunction.from_json(fd)), same_pieces),
            Op(f"from_json-g/{p}", _call(lambda gd=gd: stepfn.StepFunction.from_json(gd)),
               lambda o, _, G=G: o.value.pieces == tuple(G.pieces())),
            Op(f"lognorm/{p}", _call(lambda f=f: stepfn.lognorm(f), _scalar("lognorm")),
               _float_check(checks.lognorm(F), 1e-12)),
            Op(f"dlog/{p}", _call(lambda f=f, g=g: stepfn.dlog(f, g), _scalar("dlog")),
               _float_check(checks.dlog(F, G), 1e-11)),
            Op(f"pointwise-add/{p}", _call(lambda f=f, g=g: stepfn.pointwise(f, g, "add"), _to_json),
               lambda o, r, ok=pointwise_ok: ok(o, r, lambda x, y: x + y)),
            Op(f"pointwise-mul/{p}", _call(lambda f=f, g=g: stepfn.pointwise(f, g, "mul"), _to_json),
               lambda o, r, ok=pointwise_ok: ok(o, r, lambda x, y: x * y)),
            Op(f"orlicz_fnorm/{p}", _call(lambda f=f: stepfn.orlicz_fnorm(f), _scalar("orlicz_fnorm")),
               orlicz_ok),
            Op(f"rearrangement/{p}", _call(lambda f=f: stepfn.decreasing_rearrangement(f), _to_json),
               rearrangement_ok),
            Op(f"convex_split/{p}", _call(lambda f=f: witnesses.convex_split(f, eps), _to_json),
               convex_ok),
        ]
    for p in refs["sizes"]["stepfn_cauchy_pieces"]:
        seq = inp.objs[f"seq{p}"]
        docs = [Step(d) for d in inp.docs[f"seq{p}"]]

        def cauchy_ok(o, _, docs=docs):
            limit, report = o.value
            want = [checks.dlog(a, b) for a, b in zip(docs, docs[1:])]
            return report.is_cauchy and limit.pieces == tuple(docs[-1].pieces()) \
                and report.limit_distance == 0.0 \
                and all(close(d, w, 1e-11, 1e-15) for d, w in zip(report.distances, want))

        ops.append(Op(f"cauchy_limit/{p}",
                      _call(lambda seq=seq: witnesses.cauchy_limit(seq, 1e-9), _cauchy_doc), cauchy_ok))
    return ops


def _cauchy_doc(v):
    limit, report = v
    return {"is_cauchy": report.is_cauchy, "distances": list(report.distances),
            "gap": report.gap, "limit": limit.to_json(), "limit_distance": report.limit_distance}


# --------------------------------------------------------------------- operators-svd

def _svals_ok(steps, sv, n):
    heights = [h for _, h in steps.steps]
    return len(heights) == n and all(math.isclose(w, 1.0 / n, rel_tol=1e-12) for w, _ in steps.steps) \
        and bool(np.allclose(heights, sv, rtol=0, atol=1e-11 * sv[0]))


def _matrix_ops(tag: str, A, B, Ad, r: dict) -> list:
    from logalg import operators
    n = A.n
    sv = np.asarray(r["sv"])
    T = checks.matrix(Ad)

    def project_ok(o, _):
        p = o.value.entries
        return checks.is_projection(p) and \
            abs(np.trace(p).real / n - np.count_nonzero(sv >= r["a"]) / n) <= 1e-9

    def split_ok(o, _):
        s = o.value
        b, t = s.bounded_part.entries, s.tail_part.entries
        scale = np.abs(T).max()
        tail2 = float(np.sum(sv[sv > r["K"]] ** 2))
        bounded2 = float(np.sum(sv[sv <= r["K"]] ** 2))
        return bool(np.allclose(b + t, T, rtol=0, atol=1e-12 * scale)) \
            and math.isclose(np.linalg.norm(t) ** 2, tail2, rel_tol=1e-9, abs_tol=1e-9 * scale ** 2) \
            and math.isclose(np.linalg.norm(b) ** 2, bounded2, rel_tol=1e-9)

    return [
        Op(f"lognorm_op/{tag}", _call(lambda: operators.lognorm_op(A), _scalar("lognorm")),
           _float_check(float(np.log1p(sv).sum() / n), 1e-10)),
        Op(f"dtau/{tag}", _call(lambda: operators.dtau(A, B), _scalar("dtau")),
           _float_check(checks.dtau_series(r["sv_diff"], n), 0.0, 2.0 ** -60 + 1e-12)),
        Op(f"measure_above/{tag}", _call(lambda: operators.measure_above(A, r["delta"]), _scalar("measure")),
           _float_check(np.count_nonzero(sv >= r["delta"]) / n, 0.0)),
        Op(f"singular_numbers/{tag}", _call(lambda: operators.singular_numbers(A), _to_json),
           lambda o, _: _svals_ok(o.value, sv, n)),
        Op(f"spectral_project/{tag}", _call(lambda: operators.spectral_project(A, r["a"]), _to_json),
           project_ok),
        Op(f"split_at/{tag}", _call(lambda: operators.split_at(A, r["K"]), _split_doc), split_ok),
        Op(f"fk_determinant/{tag}", _call(lambda: operators.fk_determinant(A), _scalar("fk_determinant")),
           _float_check(math.exp(r["logabsdet"] / n), 1e-10)),
    ]


def _split_doc(s):
    return {"cutoff": s.cutoff, "bounded_part": s.bounded_part.to_json(),
            "tail_part": s.tail_part.to_json()}


def _batch_check(per_item):
    return lambda o, _: all(per_item(i, v) for i, v in enumerate(o.value))


def _batch_ops(tag: str, docs: list, mats: list, rb: list) -> list:
    """One operation per function over a whole batch of 4x4 matrices."""
    from logalg import operators
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    return [
        Op(f"from_json/{tag}", _call(lambda: [operators.MatrixOperator.from_json(d) for d in docs]),
           _batch_check(lambda i, v: np.array_equal(v.entries, checks.matrix(docs[i])))),
        Op(f"lognorm_op/{tag}", _call(lambda: [operators.lognorm_op(a) for a in mats], _scalar("lognorm")),
           _batch_check(lambda i, v: close(v, float(np.log1p(rb[i]["sv"]).sum() / 4), 1e-10))),
        Op(f"dtau/{tag}", _call(lambda: [operators.dtau(a, b) for a, b in pairs], _scalar("dtau")),
           _batch_check(lambda i, v: close(v, checks.dtau_series(rb[i]["sv_diff"], 4), 0.0, 2.0 ** -60 + 1e-12))),
        Op(f"measure_above/{tag}",
           _call(lambda: [operators.measure_above(a, rb[i]["delta"]) for i, a in enumerate(mats)],
                 _scalar("measure")),
           _batch_check(lambda i, v: v == np.count_nonzero(np.asarray(rb[i]["sv"]) >= rb[i]["delta"]) / 4)),
        Op(f"singular_numbers/{tag}",
           _call(lambda: [operators.singular_numbers(a) for a in mats], lambda v: [s.to_json() for s in v]),
           _batch_check(lambda i, v: _svals_ok(v, np.asarray(rb[i]["sv"]), 4))),
        Op(f"fk_determinant/{tag}",
           _call(lambda: [operators.fk_determinant(a) for a in mats], _scalar("fk_determinant")),
           _batch_check(lambda i, v: close(v, math.exp(rb[i]["logabsdet"] / 4), 1e-10))),
    ]


def _operators_ops(inp: Inputs, refs: dict) -> list:
    from logalg import operators
    R = refs["refs"]
    ops = []
    for n in refs["sizes"]["matrix_n"]:
        Ad = inp.docs[f"A{n}"]
        ops.append(Op(f"from_json/{n}", _call(lambda d=Ad: operators.MatrixOperator.from_json(d)),
                      lambda o, _, d=Ad: bool(np.array_equal(o.value.entries, checks.matrix(d)))))
        ops += _matrix_ops(str(n), inp.objs[f"A{n}"], inp.objs[f"B{n}"], Ad, R[f"n{n}"])
        if n in refs["sizes"]["embed_n"]:
            e, want = inp.objs[f"e{n}"], checks.embedded_diagonal(Step(inp.docs[f"e{n}"]), n)
            ops.append(Op(f"embed_diagonal/{n}", _call(lambda e=e, n=n: operators.embed_diagonal(e, n), _to_json),
                          lambda o, _, want=want: bool(np.array_equal(o.value.entries, want))))

    for j in range(refs["sizes"]["batches"]):
        ops += _batch_ops(f"batch4-{j}", inp.docs[f"batch4-{j}"], inp.objs[f"batch4-{j}"], R[f"batch4-{j}"])
    return ops


# --------------------------------------------------------------------- holo-quadrature

def _holo_ops(inp: Inputs, refs: dict) -> list:
    from logalg import errors, holo
    R = refs["refs"]
    grids = [1 << k for k in refs["sizes"]["holo_grid_log2"]]
    ops = []
    for stem in ("inv_singular", "blaschke3", "eval"):
        d = inp.docs[stem]
        ops.append(Op(f"from_json/{stem}", _call(lambda d=d: holo.from_json(d)),
                      lambda o, _, d=d: o.value.to_json() == d))

    def smirnov_doc(v):
        return {"defect": v.defect, "is_smirnov": v.is_smirnov, "class_estimate": v.class_estimate,
                "class_converged": v.class_converged, "boundary_norm": v.boundary}

    corpus = inp.objs["corpus"]
    for i, f in enumerate(corpus):
        nplus = i != len(corpus) - 1   # the last member, 1/S_1, lies in N but not in N+

        def smirnov_ok(o, _, i=i, nplus=nplus):
            v = o.value
            return abs(v.boundary - R["corpus_boundary"][i]) <= 1e-4 and v.is_smirnov == nplus \
                and (nplus or v.defect > 0.5)
        ops.append(Op(f"smirnov_defect/corpus{i}", _call(lambda f=f: holo.smirnov_defect(f), smirnov_doc),
                      smirnov_ok))
    # known fault on a fixed input: 1/z is not in N, yet it is accepted and
    # reported converged; refusing it at parse or at quadrature both pass
    inv_z = inp.docs["inv_z"]
    ops.append(Op("smirnov_defect/inv_z", _call(lambda: holo.smirnov_defect(holo.from_json(inv_z)), smirnov_doc),
                  lambda o, _: isinstance(o.error, errors.StructureError), fault=True))

    def radial(tag, f, k, m, ref, k_prev=None):
        r = 1 - 2.0 ** -k
        name = f"radial_mean/{tag}/k{k}/m{m}"
        prev = f"radial_mean/{tag}/k{k_prev}/m{m}"

        def ok(o, done):
            v = o.value
            # radial means are nondecreasing in r
            return close(v, ref, 1e-10, 1e-12) and (prev not in done or v >= done[prev].value - 1e-12)
        return Op(name, _call(lambda: holo.radial_mean(f, r, m), lambda v: {"r": r, "m": m, "mean": v}), ok)

    z, inv_s = inp.objs["z"], inp.objs["inv_singular"]
    for m in (grids[0], grids[len(grids) // 2]):
        ks = R["z_k"]
        ops += [radial("z", z, k, m, math.log1p(1 - 2.0 ** -k), p) for p, k in zip([None] + ks, ks)]
    k = R["z_k"][-1]
    ops.append(radial("z", z, k, grids[-1], math.log1p(1 - 2.0 ** -k)))
    ks = [int(k) for k in R["inv_singular_means"]]
    for m in grids:
        ops += [radial("inv_singular", inv_s, k, m, R["inv_singular_means"][str(k)], p)
                for p, k in zip([None] + ks, ks)]
    for j in range(4):
        b = inp.objs[f"blaschke{j}"]
        for m in (grids[0], grids[len(grids) // 2]):
            ops.append(Op(f"boundary_norm/blaschke{j}/m{m}",
                          _call(lambda b=b, m=m: holo.boundary_norm(b, m), _scalar("boundary_norm")),
                          _float_check(math.log(2), 1e-12)))
    ev = inp.objs["eval"]
    for i, ((x, y), want) in enumerate(zip(R["points"], R["values"])):
        want = complex(want["re"], want["im"])
        ops.append(Op(f"evaluate/{i}", _call(lambda p=complex(x, y): holo.evaluate(ev, p), _scalar("value")),
                      lambda o, _, want=want: abs(o.value - want) <= 1e-12 * abs(want)))
    return ops


# --------------------------------------------------------------------- cli-verbs

def cli_prefix() -> list:
    return [sys.executable, "-m", "logalg.cli"]


def _cli(argv: list, prefix: Callable[[], list]) -> Callable[[], Outcome]:
    def run():
        proc = subprocess.run(prefix() + argv, capture_output=True, text=True)
        return Outcome(proc)
    return run


def _cli_check(verb_ok=None, *, fault_error=False, text_out=False):
    """A CLI operation passes when it exits 0, writes only `error: ` lines to
    stderr, prints strict JSON and its verb check passes.  An operation that
    must be refused passes when it exits 1 or 2 with `error: ` lines only."""
    def check(o, _):
        p = o.value
        if any(line and not line.startswith("error: ") for line in p.stderr.splitlines()):
            return False
        if fault_error:
            return p.returncode in (1, 2) and p.stdout == "" and p.stderr.startswith("error: ")
        if p.returncode != 0:
            return False
        if text_out:
            return verb_ok(p.stdout)
        try:
            out = checks.strict_loads(p.stdout)
        except ValueError:
            return False
        return verb_ok(out)
    return check


def _cli_ops(inp: Inputs, refs: dict, prefix: Callable[[], list]) -> list:
    R = refs["refs"]
    path = {stem: os.path.join(inp.workdir, "inputs", stem + ".json") for stem in inp.docs}
    F, G, E = Step(inp.docs["f"]), Step(inp.docs["g"]), Step(inp.docs["e"])
    seq = [Step(d) for d in inp.docs["seq"]]
    A = R["A"]
    sv, n = np.asarray(A["sv"]), 16
    T = checks.matrix(inp.docs["A"])
    eps, N, k = R["eps"], R["N"], R["k"]
    hz = complex(*R["h_z"])
    rt = 1e-13  # outputs carry 15 significant digits

    def orlicz_ok(out):
        lam = out["orlicz_fnorm"]
        return lam > 0 and abs(checks.lognorm(F, 1.0 / lam) - lam) <= 1e-9 * max(1.0, lam)

    def rearrange_ok(out):
        return checks.is_rearrangement([(x["w"], x["h"]) for x in out["steps"]], F, rt)

    def project_ok(out):
        p = checks.matrix(out)
        return checks.is_projection(p, 1e-9) and \
            abs(np.trace(p).real / n - np.count_nonzero(sv >= A["a"]) / n) <= 1e-9

    def split_ok(out):
        b, t = checks.matrix(out["bounded_part"]), checks.matrix(out["tail_part"])
        return close(out["cutoff"], A["K"], rt) and bool(np.allclose(b + t, T, rtol=0, atol=1e-12 * np.abs(T).max())) \
            and math.isclose(np.linalg.norm(t) ** 2, float(np.sum(sv[sv > A["K"]] ** 2)), rel_tol=1e-9)

    def embed_ok(out):
        return bool(np.allclose(checks.matrix(out), checks.embedded_diagonal(E, n), rtol=rt, atol=0))

    def sweep_ok(out):
        means = [row["mean"] for row in out["sweep"]]
        return len(means) == len(R["sweep_means"]) and all(b >= a for a, b in zip(means, means[1:])) \
            and all(close(v, w, 1e-9) for v, w in zip(means, R["sweep_means"]))

    def smirnov_ok(out):
        return out["is_smirnov"] is True and abs(out["boundary_norm"] - R["h_boundary"]) <= 1e-4 \
            and abs(out["defect"]) <= 1e-4

    def nonbounded_ok(out):
        K, eta = out["K"], out["eta"]
        return out["valid"] is True and eta * math.log1p(K) < eps and eta * math.log1p(K / N) >= eps / 2

    def nonconvex_ok(out):
        m = out["n"]
        target = checks.lognorm(F, m) / m
        bp = out["breakpoints"]
        return checks.lognorm(F, m) / m < eps and (m == 1 or checks.lognorm(F, m - 1) / (m - 1) >= eps) \
            and len(out["piece_norms"]) == m and all(close(x, target, 1e-12) for x in out["piece_norms"]) \
            and bp[0] == 0 and bp[-1] == 1 and all(b >= a for a, b in zip(bp, bp[1:]))

    def separation_ok(out):
        s = out["sequence"]
        return len(s) == k and all(a["support_measure"] > b["support_measure"]
                                   and a["lognorm_value"] < b["lognorm_value"] for a, b in zip(s, s[1:])) \
            and all(x["lognorm_value"] >= x["k"] and close(x["support_measure"], 1 / x["k"], rt) for x in s)

    def cauchy_ok(out):
        want = [checks.dlog(a, b) for a, b in zip(seq, seq[1:])]
        limit = Step(out["limit"])
        return out["is_cauchy"] is True and out["limit_distance"] == 0 \
            and limit.values.size == seq[-1].values.size \
            and all(np.allclose(a, b, rtol=rt, atol=0) for a, b in
                    ((limit.values, seq[-1].values), (limit.left, seq[-1].left), (limit.right, seq[-1].right))) \
            and all(close(d, w, rt, 1e-15) for d, w in zip(out["distances"], want))

    def selftest_ok(stdout):
        lines = stdout.splitlines()
        return bool(lines) and all(line.startswith("[selftest] pass: ") for line in lines[:-1]) \
            and lines[-1] == "[selftest] all suites passed"

    C = _cli_check
    specs = [
        ("norm", ["norm", "--input", path["f"]], C(lambda o: close(o["lognorm"], checks.lognorm(F), rt))),
        ("dist", ["dist", "--input", path["f"], "--other", path["g"]],
         C(lambda o: close(o["dlog"], checks.dlog(F, G), rt))),
        ("orlicz", ["orlicz", "--input", path["f"]], C(orlicz_ok)),
        ("rearrange", ["rearrange", "--input", path["f"]], C(rearrange_ok)),
        ("op-norm", ["op-norm", "--input", path["A"]],
         C(lambda o: close(o["lognorm"], float(np.log1p(sv).sum() / n), 1e-10))),
        ("op-dist", ["op-dist", "--input", path["A"], "--other", path["B"]],
         C(lambda o: close(o["dlog"], float(np.log1p(A["sv_diff"]).sum() / n), 1e-10))),
        ("dtau", ["dtau", "--input", path["A"], "--other", path["B"]],
         C(lambda o: close(o["dtau"], checks.dtau_series(A["sv_diff"], n), 0.0, 2.0 ** -60 + 1e-12))),
        ("project", ["project", "--input", path["A"], "--a", repr(A["a"])], C(project_ok)),
        ("split", ["split", "--input", path["A"], "--K", repr(A["K"])], C(split_ok)),
        ("fkdet", ["fkdet", "--input", path["A"]],
         C(lambda o: close(o["fk_determinant"], math.exp(A["logabsdet"] / n), 1e-10))),
        ("embed", ["embed", "--input", path["e"], "--n", str(n)], C(embed_ok)),
        ("nev-eval", ["nev-eval", "--input", path["h"], "--re", repr(hz.real), "--im", repr(hz.imag)],
         C(lambda o: abs(complex(o["value"]["re"], o["value"]["im"]) - complex(R["h_value"]["re"], R["h_value"]["im"]))
           <= 1e-12 * abs(complex(R["h_value"]["re"], R["h_value"]["im"])))),
        ("nev-sweep", ["nev-sweep", "--input", path["h"], "--k-max", str(len(R["sweep_means"])), "--m", "4096",
                       "--format", "json"],
         C(sweep_ok)),
        ("nev-smirnov", ["nev-smirnov", "--input", path["h"]], C(smirnov_ok)),
        ("witness-nonbounded", ["witness", "nonbounded", "--eps", repr(eps), "--N", str(N)], C(nonbounded_ok)),
        ("witness-nonconvex", ["witness", "nonconvex", "--input", path["f"], "--eps", repr(eps)], C(nonconvex_ok)),
        ("witness-separation", ["witness", "separation", "--k", str(k)], C(separation_ok)),
        ("cauchy", ["cauchy", "--input", path["seq"], "--tol", "1e-9"], C(cauchy_ok)),
        ("selftest", ["selftest", "--seed", str(R["selftest_seed"]), "--trials", "2"], C(selftest_ok, text_out=True)),
    ]
    ops = [Op(name, _cli(argv, prefix), check) for name, argv, check in specs]
    # known faults on fixed inputs: sigma = 1e-310 overflows math.ceil(1/sigma),
    # and 1e308 + 1e308 z at z = 1 is printed as NaN instead of being refused
    ops += [
        Op("dtau-tiny", _cli(["dtau", "--input", path["tiny"], "--other", path["zero"]], prefix),
           C(lambda o: close(o["dtau"], 0.0, 0.0, 2.0 ** -60 + 1e-12)), fault=True),
        Op("nev-eval-overflow", _cli(["nev-eval", "--input", path["huge"], "--re", "1"], prefix),
           C(fault_error=True), fault=True),
    ]
    return ops


def build(workload: str, inp: Inputs, refs: dict, prefix: Callable[[], list] = cli_prefix) -> list:
    if workload == "cli-verbs":
        return _cli_ops(inp, refs, prefix)
    return {"stepfn-refine": _stepfn_ops, "operators-svd": _operators_ops,
            "holo-quadrature": _holo_ops}[workload](inp, refs)


# planted wrong result for the smoke mode: the first operation of each
# workload whose result is one float gets it scaled by 1 + 1e-6
PLANT_TARGET = {"cli-verbs": "norm", "stepfn-refine": "lognorm/", "operators-svd": "lognorm_op/",
                "holo-quadrature": "radial_mean/z/"}


def plant(outcome: Outcome) -> Outcome:
    if isinstance(outcome.value, subprocess.CompletedProcess):
        out = json.loads(outcome.value.stdout)
        key = next(iter(out))
        out[key] *= 1 + 1e-6
        outcome.value.stdout = json.dumps(out)
    else:
        outcome.value *= 1 + 1e-6
    return outcome
