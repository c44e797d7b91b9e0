"""Steadiness check: two sets of runs of the same checkout, compared.

    python3 bench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]

Runs bench/run.py --trace 0 `runs` times per set and workload, each run with
its own seed.  For every workload and end-to-end metric it prints each set's
median and quartiles and whether the sets agree within the bound in
BENCHMARK.json: each set's quartile spread (Q3 - Q1) / median stays within
the bound (set-up time excepted), the second median is not worse than the
first by more than the bound, and the share of failed operations is the
same in every run.  Exits 0 when everything agrees.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--workload", action="append", help="default: every workload")
    args = p.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report, ok = {}, True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                runs.append(one_run(w, seed, args.seconds))
                print(f"{w} set {s + 1} run {i + 1}/{args.runs} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        rows = {}
        print(f"\n{w}: failed share {sorted(shares)}, all correct: {correct}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            steady = all(x["spread"] <= bound for x in sums) or name == "setup_s"
            drift = worse_by(sums[0]["median"], sums[-1]["median"], m["better"])
            agree = steady and drift <= bound
            ok = ok and agree
            rows[name] = {"sets": sums, "bound": bound, "drift": drift, "agree": agree}
            cells = "  ".join(f"median {x['median']:.5g} q1 {x['q1']:.5g} q3 {x['q3']:.5g} "
                              f"spread {x['spread']:.3f}" for x in sums)
            print(f"  {name:16s} {cells}  drift {drift:+.3f}  bound {bound}  {'agree' if agree else 'DISAGREE'}")
        ok = ok and len(shares) == 1 and correct
        report[w] = {"metrics": rows, "failed_shares": sorted(shares), "correct": correct}
    print(json.dumps({"agree": ok, "workloads": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
