"""One workload process: timed set-up, rounds of operations, checks, metrics.

Started by run.py; prints one JSON object as its last line.  With
--setup-only it measures set-up and exits.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

# the percentile behind latency_tail_ms: the highest one with at least ten
# samples beyond it once a run has made its minimum number of rounds
TAIL_PERCENTILE = {"cli-verbs": 75, "stepfn-refine": 90, "operators-svd": 90, "holo-quadrature": 90}
TAIL_BEYOND = 10


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def beyond_tail(n, pct):
    return n - math.ceil(pct / 100 * n)


class Runner:
    def __init__(self, ops, plant_target=None):
        self.ops = ops
        self.verified = {}          # op index -> emitted text already checked
        self.plant_target = plant_target
        self.latencies = []         # every operation's time, all rounds
        self.per_op = [[] for _ in ops]
        self.walls = []
        self.attempted = self.failed = 0
        self.unexpected = set()

    def round(self):
        import workloads
        outcomes, lat = [], []
        start = time.perf_counter()
        for op in self.ops:
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raised error is an outcome the check judges
                out = workloads.Outcome(error=exc)
            lat.append(time.perf_counter() - t)
            outcomes.append(out)
        wall = time.perf_counter() - start
        self._check(outcomes)
        self.latencies += lat
        for samples, t in zip(self.per_op, lat):
            samples.append(t)
        self.walls.append(wall)
        return wall

    def wall(self):
        """One round's time, as the sum of each operation's median over rounds,
        so that a burst of noise in one round moves only the operations it hit."""
        return sum(statistics.median(samples) for samples in self.per_op)

    def _check(self, outcomes):
        import checks
        import workloads
        done = {}
        for i, (op, out) in enumerate(zip(self.ops, outcomes)):
            if self.plant_target and op.name.startswith(self.plant_target) and out.error is None:
                out = workloads.plant(out)
                self.plant_target = None
            self.attempted += 1
            if self._ok(i, op, out, done, checks):
                done[op.name] = out
                continue
            self.failed += 1
            if not op.fault:
                self.unexpected.add(op.name)

    def _ok(self, i, op, out, done, checks):
        if out.text is not None and self.verified.get(i) == out.text:
            return True
        try:
            ok = bool(op.check(out, done))
            if ok and out.text is not None:
                ok = checks.round_trips(out.doc, out.text)
        except Exception as exc:  # a check that cannot read the result rejects it
            print(f"check of {op.name} raised {exc!r}", file=sys.stderr)
            ok = False
        if ok and out.text is not None:
            self.verified[i] = out.text
        return ok


def run_rounds(runner, seconds, rounds, pct):
    """Whole rounds until `seconds` pass and the tail has ten samples beyond it."""
    start = time.perf_counter()
    last = 0.0
    while True:
        if rounds is not None:
            if len(runner.walls) >= rounds:
                return
        elif runner.walls and beyond_tail(len(runner.latencies), pct) >= TAIL_BEYOND \
                and time.perf_counter() - start + last > seconds:
            return
        last = runner.round()


def end_to_end(runner, setup_s, pct, workload):
    lat = sorted(runner.latencies)
    wall = runner.wall()
    who = resource.RUSAGE_CHILDREN if workload == "cli-verbs" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "latency_p50_ms": 1e3 * statistics.median(statistics.median(x) for x in runner.per_op),
        "latency_tail_ms": 1e3 * nearest_rank(lat, pct),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ops_per_s": len(runner.ops) / wall,
    }


def cli_import_ms(pairs=5):
    """Fresh-process `import logalg` minus a bare interpreter start (medians)."""
    import subprocess

    def timed(code):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - t
    bare, full = [], []
    for _ in range(pairs):
        bare.append(timed("pass"))
        full.append(timed("import logalg"))
    return 1e3 * (statistics.median(full) - statistics.median(bare))


def traced(args, inp, refs, runner):
    """One traced round (plus one traced CLI pass for in-process workloads)."""
    import spans
    import workloads
    span_sets, counts = [], {}

    def child_prefix():
        path = os.path.join(args.dir, f"spans-{len(child_files)}.json")
        child_files.append(path)
        return [sys.executable, os.path.join(BENCH_DIR, "clichild.py"), path]
    child_files = []

    tracer = spans.Tracer()
    if args.workload == "cli-verbs":
        ops = workloads.build(args.workload, inp, refs, child_prefix)
    else:
        spans.install(tracer)
        ops = workloads.build(args.workload, inp, refs)
    t_runner = Runner(ops)
    wall = t_runner.round()
    span_sets.append(tracer.spans)
    probe_unexpected = set()
    if args.workload != "cli-verbs":
        cli_dir = os.path.join(args.dir, "cli")
        probe = Runner(workloads.build("cli-verbs", workloads.load("cli-verbs", cli_dir),
                                       _refs(cli_dir), child_prefix))
        probe.round()
        probe_unexpected = {f"cli-probe/{name}" for name in probe.unexpected}
    for path in child_files:
        with open(path) as fh:
            child = json.load(fh)
        span_sets.append(child["spans"])
        for k, v in child["counts"].items():
            # breakpoints per binary op describe the workload's own inputs, not the CLI pass
            if args.workload == "cli-verbs" or not k.startswith("stepfn."):
                counts[k] = counts.get(k, 0) + v
    for k, v in tracer.counts.items():
        counts[k] = counts.get(k, 0) + v
    runner.attempted += t_runner.attempted
    runner.failed += t_runner.failed
    runner.unexpected |= t_runner.unexpected | probe_unexpected
    metrics = spans.layer_metrics(span_sets, counts)
    metrics["cli.import_ms"] = cli_import_ms()
    metrics["trace.overhead_ms"] = 1e3 * (wall - runner.wall())
    with open(os.path.join(args.dir, "spans.json"), "w") as fh:
        json.dump(span_sets, fh)
    return metrics


def _refs(workdir):
    with open(os.path.join(workdir, "refs.json")) as fh:
        return json.load(fh)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--dir", required=True, help="directory written by gen.generate")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--rounds", type=int, default=None, help="exact round count (smoke mode)")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--plant", action="store_true", help="corrupt one result; its check must fail")
    args = p.parse_args()

    import workloads
    inp = workloads.load(args.workload, args.dir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    refs = _refs(args.dir)
    pct = TAIL_PERCENTILE[args.workload]
    runner = Runner(workloads.build(args.workload, inp, refs),
                    workloads.PLANT_TARGET[args.workload] if args.plant else None)
    # the inputs and references live for the whole run: keep the collector
    # from walking them again in every collection of the timed phase
    gc.collect()
    gc.freeze()
    seconds = args.seconds / 2 if args.trace else args.seconds
    run_rounds(runner, seconds, args.rounds, pct)
    metrics = traced(args, inp, refs, runner) if args.trace else \
        end_to_end(runner, setup_s, pct, args.workload)
    for name in sorted(runner.unexpected):
        print(f"operation failed its check: {name}", file=sys.stderr)
    print(json.dumps({"correct": not runner.unexpected, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics, "rounds": len(runner.walls)}))


if __name__ == "__main__":
    main()
