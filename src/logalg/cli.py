"""Batch command line front end.

Every verb maps to one library operation.  Inputs are JSON (file path,
inline string, or '-' for stdin); results go to stdout as JSON (CSV for
nev-sweep).  Exit codes: 0 success, 1 invariant-check failure, 2
malformed input or invalid parameters.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import holo, jsonio, operators as ops, selftest, stepfn, witnesses
from .errors import InvalidParameterError, InvariantError, LogAlgError, MalformedInputError


def _load_json(source: str):
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            if not source.lstrip().startswith(("{", "[")):
                raise MalformedInputError(
                    f"cannot read input file {source}: {exc.strerror}") from exc
            text = source  # inline JSON
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON: {exc}") from exc


def _step(source: str) -> stepfn.StepFunction:
    return stepfn.StepFunction.from_json(_load_json(source))


def _matrix(source: str) -> ops.MatrixOperator:
    return ops.MatrixOperator.from_json(_load_json(source))


def _holo(source: str) -> holo.HoloFunction:
    return holo.from_json(_load_json(source))


def _emit(obj) -> None:
    print(jsonio.dumps(obj))


def _cmd_norm(args):
    _emit({"lognorm": stepfn.lognorm(_step(args.input))})


def _cmd_dist(args):
    _emit({"dlog": stepfn.dlog(_step(args.input), _step(args.other))})


def _cmd_orlicz(args):
    _emit({"orlicz_fnorm": stepfn.orlicz_fnorm(_step(args.input))})


def _cmd_rearrange(args):
    _emit(stepfn.decreasing_rearrangement(_step(args.input)).to_json())


def _cmd_op_norm(args):
    _emit({"lognorm": ops.lognorm_op(_matrix(args.input))})


def _cmd_op_dist(args):
    _emit({"dlog": ops.dlog_op(_matrix(args.input), _matrix(args.other))})


def _cmd_dtau(args):
    _emit({"dtau": ops.dtau(_matrix(args.input), _matrix(args.other))})


def _cmd_project(args):
    b = math.inf if args.b is None else args.b
    _emit(ops.spectral_project(_matrix(args.input), args.a, b).to_json())


def _cmd_split(args):
    s = ops.split_at(_matrix(args.input), args.K)
    _emit({"cutoff": s.cutoff,
           "bounded_part": s.bounded_part.to_json(),
           "tail_part": s.tail_part.to_json()})


def _cmd_fkdet(args):
    _emit({"fk_determinant": ops.fk_determinant(_matrix(args.input))})


def _cmd_embed(args):
    _emit(ops.embed_diagonal(_step(args.input), args.n).to_json())


def _cmd_nev_eval(args):
    v = holo.evaluate(_holo(args.input), complex(args.re, args.im))
    _emit({"value": v})


def _cmd_nev_sweep(args):
    f = _holo(args.input)
    rows = []
    for k in range(1, args.k_max + 1):
        r = 1.0 - 2.0 ** (-k)
        rows.append((r, holo.radial_mean(f, r, args.m)))
    if args.format == "json":
        _emit({"sweep": [{"r": r, "mean": v} for r, v in rows]})
    else:
        print("r,radial_mean")
        for r, v in rows:
            print(f"{r:.15g},{v:.15g}")


def _cmd_nev_smirnov(args):
    res = holo.smirnov_defect(_holo(args.input), args.tol)
    _emit({"defect": res.defect, "is_smirnov": res.is_smirnov,
           "class_estimate": res.class_estimate,
           "class_converged": res.class_converged,
           "boundary_norm": res.boundary})


def _cmd_witness(args):
    if args.kind == "nonbounded":
        w = witnesses.unboundedness_witness(args.eps, args.N)
        _emit(w.to_json())
        if not w.verify():
            raise InvariantError("unboundedness witness failed re-check")
    elif args.kind == "nonconvex":
        if args.input is None:
            raise InvalidParameterError("witness nonconvex requires --input")
        f = _step(args.input)
        split = witnesses.convex_split(f, args.eps)
        _emit(split.to_json())
        if not split.verify(f):
            raise InvariantError("convex split failed re-check")
    else:  # separation
        reports = [witnesses.separation_sequence(k).to_json()
                   for k in range(1, args.k + 1)]
        _emit({"sequence": reports})


def _cmd_cauchy(args):
    payload = _load_json(args.input)
    if not isinstance(payload, list):
        raise MalformedInputError("cauchy expects a JSON list of step functions")
    seq = [stepfn.StepFunction.from_json(o) for o in payload]
    limit, report = witnesses.cauchy_limit(seq, args.tol)
    _emit({"is_cauchy": report.is_cauchy,
           "distances": list(report.distances),
           "gap": report.gap,
           "limit": limit.to_json(),
           "limit_distance": report.limit_distance})


def _cmd_selftest(args):
    failures = selftest.run_all(seed=args.seed, trials=args.trials)
    if failures:
        raise InvariantError(f"selftest failed: {', '.join(failures)}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="logalg",
        description="Log-integrable function/operator algebra toolkit")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    def with_input(sp, other=False):
        sp.add_argument("--input", required=True,
                        help="JSON file path, inline JSON, or '-' for stdin")
        if other:
            sp.add_argument("--other", required=True,
                            help="second operand (same formats)")
        return sp

    with_input(add("norm", _cmd_norm, help="log F-norm of a step function"))
    with_input(add("dist", _cmd_dist, help="dlog metric"), other=True)
    with_input(add("orlicz", _cmd_orlicz, help="Orlicz-style F-norm"))
    with_input(add("rearrange", _cmd_rearrange, help="decreasing rearrangement"))
    with_input(add("op-norm", _cmd_op_norm, help="matrix log F-norm"))
    with_input(add("op-dist", _cmd_op_dist, help="matrix dlog metric"), other=True)
    with_input(add("dtau", _cmd_dtau, help="measure-topology metric"), other=True)

    sp = with_input(add("project", _cmd_project, help="spectral projection of |T|"))
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, default=None, help="omit for [a, inf)")

    sp = with_input(add("split", _cmd_split, help="bounded/tail spectral split"))
    sp.add_argument("--K", type=float, required=True)

    with_input(add("fkdet", _cmd_fkdet, help="Fuglede-Kadison determinant"))

    sp = with_input(add("embed", _cmd_embed, help="diagonal embedding"))
    sp.add_argument("--n", type=int, required=True)

    sp = with_input(add("nev-eval", _cmd_nev_eval, help="evaluate a disk function"))
    sp.add_argument("--re", type=float, default=0.0)
    sp.add_argument("--im", type=float, default=0.0)

    sp = with_input(add("nev-sweep", _cmd_nev_sweep,
                        help="radial means along r = 1 - 2^-k"))
    sp.add_argument("--k-max", type=int, default=12)
    sp.add_argument("--m", type=int, default=4096)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")

    sp = with_input(add("nev-smirnov", _cmd_nev_smirnov,
                        help="Smirnov-class defect"))
    sp.add_argument("--tol", type=float, default=1e-4)

    sp = add("witness", _cmd_witness, help="negative-result constructions")
    sp.add_argument("kind", choices=("nonbounded", "nonconvex", "separation"))
    sp.add_argument("--input", help="step function (nonconvex only)")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--k", type=int, default=20)

    sp = with_input(add("cauchy", _cmd_cauchy,
                        help="Cauchy classification and limit extraction"))
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = add("selftest", _cmd_selftest, help="run the invariant suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=200)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
        return 0
    except LogAlgError as exc:
        err = exc
    except RecursionError:  # only input trees recurse
        err = MalformedInputError("input nests too deeply")
    except MemoryError:
        err = InvalidParameterError("the result does not fit in memory")
    print(f"error: {err.code}: {err}", file=sys.stderr)
    return 1 if isinstance(err, InvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
