"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a logalg checkout; the package is used from ./src.
Generates the workload's inputs from the seed, measures set-up in several
fresh processes, runs the workload in its own process and prints one JSON
object as the last line of stdout.  --smoke runs every workload once at
reduced size with all checks on, plus one planted wrong result that the
checks must reject.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, "_work")
SETUP_SAMPLES = 5       # set-up is measured in this many fresh processes; the median is reported
BLAS_THREADS = "1"

sys.path.insert(0, BENCH_DIR)


def environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def worker(env, workload, workdir, *extra) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                           "--workload", workload, "--dir", workdir, *extra],
                          env=env, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload, seed, workdir, trace, smoke=False) -> None:
    import gen
    shutil.rmtree(workdir, ignore_errors=True)
    gen.generate(workload, seed, workdir, smoke)
    if trace and workload != "cli-verbs":
        gen.generate("cli-verbs", seed, os.path.join(workdir, "cli"), smoke)


def measure(workload, seed, seconds, trace) -> dict:
    env = environment()
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    try:
        prepare(workload, seed, workdir, trace)
        setups = [worker(env, workload, workdir, "--setup-only")["setup_s"]
                  for _ in range(0 if trace else SETUP_SAMPLES - 1)]
        result = worker(env, workload, workdir, "--seconds", str(seconds), "--trace", str(trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def smoke() -> bool:
    import gen
    env = environment()
    ok = True
    for workload in gen.WORKLOADS:
        workdir = os.path.join(WORK, f"smoke-{workload}-{os.getpid()}")
        try:
            prepare(workload, 0, workdir, True, smoke=True)
            res = worker(env, workload, workdir, "--rounds", "1")
            traced = worker(env, workload, workdir, "--rounds", "1", "--trace", "1")
            planted = worker(env, workload, workdir, "--rounds", "1", "--plant")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        good = res["correct"] and traced["correct"] and not planted["correct"]
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              f"traced_correct={traced['correct']} planted_rejected={not planted['correct']}")
        ok = ok and good
    print("smoke " + ("passed" if ok else "FAILED"))
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("cli-verbs", "stepfn-refine", "operators-svd", "holo-quadrature"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "logalg", "__init__.py")):
        print("error: no logalg source under src/; run from the root of a logalg checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        p.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
