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

import logalg

from . import jsonio, stepfn, witnesses
from .errors import InvalidParameterError, InvariantError, LogAlgError, MalformedInputError


def _load_json(source: str):
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                if not source.lstrip().startswith(("{", "[")):
                    raise MalformedInputError(
                        f"cannot read input file {source}: {exc.strerror}") from exc
                text = source  # inline JSON
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON is UTF-8 (RFC 8259)
        raise MalformedInputError(f"invalid JSON: {exc}") from exc


# Operand parsers look the library up when called, so that a from_json
# replaced on its class or module is the one that runs, and so that numpy
# loads (with holo, operators and selftest) only for the verbs that use it.
STEP = lambda obj: stepfn.StepFunction.from_json(obj)  # noqa: E731
MATRIX = lambda obj: logalg.operators.MatrixOperator.from_json(obj)  # noqa: E731
TREE = lambda obj: logalg.holo.from_json(obj)  # noqa: E731


def _step_list(obj) -> list:
    if not isinstance(obj, list):
        raise MalformedInputError("cauchy expects a JSON list of step functions")
    return [STEP(o) for o in obj]


def _sweep(args, f):
    radii = logalg.holo.sweep_radii(args.k_max)
    # the largest radius first: nearest the singular atoms and the largest values,
    # it refuses an unevaluable tree before the other rows take their time
    means = [logalg.holo.radial_mean(f, r, args.m) for r in reversed(radii)]
    rows = list(zip(radii, reversed(means)))
    if args.format == "json":
        return {"sweep": [{"r": r, "mean": v} for r, v in rows]}
    return "\n".join(["r,radial_mean"] + [f"{r:.15g},{v:.15g}" for r, v in rows])


def _witness(args, f=None):
    """The separation document, or the record of the other two kinds."""
    if args.kind == "separation":
        last = witnesses.separation_sequence(args.k)  # refuses a k out of range before any work
        return {"sequence": [witnesses.separation_sequence(k).to_json() for k in range(1, args.k)]
                + [last.to_json()]}
    if args.kind == "nonbounded":
        return witnesses.unboundedness_witness(args.eps, args.N)
    if f is None:
        raise InvalidParameterError("witness nonconvex requires --input")
    return witnesses.convex_split(f, args.eps)


INPUT = ("--input", dict(required=True, help="JSON file path, inline JSON, or '-' for stdin"))
OTHER = ("--other", dict(required=True, help="second operand (same formats)"))

# One row per verb: name, help, parsers of its --input and --other operands,
# its arguments, and the map from (args, *operands) to its result: a document,
# a record with to_json() and perhaps verify(), or None when the verb printed
# for itself.
VERBS = (
    ("norm", "log F-norm of a step function", (STEP,), (INPUT,),
     lambda a, f: {"lognorm": stepfn.lognorm(f)}),
    ("dist", "dlog metric", (STEP, STEP), (INPUT, OTHER),
     lambda a, f, g: {"dlog": stepfn.dlog(f, g)}),
    ("orlicz", "Orlicz-style F-norm", (STEP,), (INPUT,),
     lambda a, f: {"orlicz_fnorm": stepfn.orlicz_fnorm(f)}),
    ("rearrange", "decreasing rearrangement", (STEP,), (INPUT,),
     lambda a, f: stepfn.decreasing_rearrangement(f)),
    ("op-norm", "matrix log F-norm", (MATRIX,), (INPUT,),
     lambda a, T: {"lognorm": logalg.operators.lognorm_op(T)}),
    ("op-dist", "matrix dlog metric", (MATRIX, MATRIX), (INPUT, OTHER),
     lambda a, S, T: {"dlog": logalg.operators.dlog_op(S, T)}),
    ("dtau", "measure-topology metric", (MATRIX, MATRIX), (INPUT, OTHER),
     lambda a, S, T: {"dtau": logalg.operators.dtau(S, T)}),
    ("project", "spectral projection of |T|", (MATRIX,),
     (INPUT, ("--a", dict(type=float, required=True)),
      ("--b", dict(type=float, default=None, help="omit for [a, inf)"))),
     lambda a, T: logalg.operators.spectral_project(
         T, a.a, math.inf if a.b is None else a.b)),
    ("split", "bounded/tail spectral split", (MATRIX,),
     (INPUT, ("--K", dict(type=float, required=True))),
     lambda a, T: logalg.operators.split_at(T, a.K)),
    ("fkdet", "Fuglede-Kadison determinant", (MATRIX,), (INPUT,),
     lambda a, T: {"fk_determinant": logalg.operators.fk_determinant(T)}),
    ("embed", "diagonal embedding", (STEP,), (INPUT, ("--n", dict(type=int, required=True))),
     lambda a, f: logalg.operators.embed_diagonal(f, a.n)),
    ("nev-eval", "evaluate a disk function", (TREE,),
     (INPUT, ("--re", dict(type=float, default=0.0)), ("--im", dict(type=float, default=0.0))),
     lambda a, f: {"value": logalg.holo.evaluate(f, complex(a.re, a.im))}),
    ("nev-sweep", "radial means along r = 1 - 2^-k", (TREE,),
     (INPUT, ("--k-max", dict(type=int, default=12)), ("--m", dict(type=int, default=4096)),
      ("--format", dict(choices=("json", "csv"), default="csv"))),
     _sweep),
    ("nev-smirnov", "Smirnov-class defect", (TREE,),
     (INPUT, ("--tol", dict(type=float, default=1e-4))),
     lambda a, f: logalg.holo.smirnov_defect(f, a.tol)),
    ("witness", "negative-result constructions", (STEP,),
     (("kind", dict(choices=("nonbounded", "nonconvex", "separation"))),
      ("--input", dict(help="step function (nonconvex only)")),
      ("--eps", dict(type=float, default=0.1)), ("--N", dict(type=int, default=2)),
      ("--k", dict(type=int, default=20))),
     _witness),
    ("cauchy", "Cauchy classification and limit extraction", (_step_list,),
     (INPUT, ("--tol", dict(type=float, default=1e-9))),
     lambda a, seq: witnesses.cauchy_limit(seq, a.tol)[1]),
    ("selftest", "run the invariant suites", (),
     (("--seed", dict(type=int, default=0)), ("--trials", dict(type=int, default=200))),
     lambda a: logalg.selftest.run_all(seed=a.seed, trials=a.trials)),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="logalg",
        description="Log-integrable function/operator algebra toolkit")
    sub = p.add_subparsers(dest="verb", required=True)
    for name, help_, parsers, arguments, run in VERBS:
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(parsers=parsers, run=run)
        for flag, kw in arguments:
            sp.add_argument(flag, **kw)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sources = (getattr(args, "input", None), getattr(args, "other", None))
        operands = [parse(_load_json(source))
                    for parse, source in zip(args.parsers, sources) if source is not None]
        out = args.run(args, *operands)
        if out is not None:
            doc = out.to_json() if hasattr(out, "to_json") else out
            print(doc if isinstance(doc, str) else jsonio.dumps(doc))
        if hasattr(out, "verify") and not out.verify():
            raise InvariantError(f"{type(out).__name__} failed its own check")
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
