"""Spans at the layer boundaries of logalg, recorded from outside the package.

``install`` replaces every public function of each layer module, wherever a
logalg module holds it, with a wrapper that records one span per call that
crosses into the layer.  A call from a layer into itself gets no span, so a
layer's self time is its own work: span duration minus its child spans.
numpy.linalg.svd is counted (calls and time) but is not a span, so the
operators spans include their SVD time.  Spans stay in memory until the run
ends.  Only the traced run installs any of this.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "jsonio", "stepfn", "witnesses", "operators", "holo", "selftest")
_CLASS_METHODS = {"stepfn": (("StepFunction", "from_json"), ("StepFunction", "make")),
                  "operators": (("MatrixOperator", "from_json"), ("MatrixOperator", "make"))}
_TREE_ARGS = ("evaluate", "radial_mean", "boundary_norm", "class_norm", "smirnov_defect", "phi_sample", "d_N")
_BINARY = ("dlog", "pointwise")


class Tracer:
    def __init__(self):
        self.spans = []                    # [name, start, end, parent index]
        self.stack = []                    # (span index, layer)
        self.counts = defaultdict(float)

    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append((len(self.spans) - 1, layer))
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def in_layer(self, layer: str) -> bool:
        return bool(self.stack) and self.stack[-1][1] == layer


def self_times(spans: list) -> dict:
    """Seconds of self time per span name."""
    out = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def inclusive_times(spans: list, prefix: str) -> float:
    """Seconds inside outermost spans whose name starts with prefix."""
    total = 0.0
    for name, start, end, parent in spans:
        if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix)):
            total += end - start
    return total


def _wrap(tracer: Tracer, layer: str, name: str, fn, counting):
    span_name = f"{layer}.{name}"

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if tracer.in_layer(layer):
            return fn(*args, **kw)
        if layer == "holo" and name in _TREE_ARGS:
            args = tuple(counting(a, tracer) if isinstance(a, counting.__base__) else a for a in args)
        elif layer == "stepfn" and name in _BINARY:
            ends = {x for f in args[:2] for piece in f.pieces for x in piece[:2]}
            tracer.counts["stepfn.breakpoints"] += len(ends)
            tracer.counts["stepfn.binary_ops"] += 1
        idx = tracer.open(span_name, layer)
        try:
            result = fn(*args, **kw)
        finally:
            tracer.close(idx)
        if span_name == "jsonio.dumps":
            tracer.counts["jsonio.bytes_out"] += len(result.encode())
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer in every logalg module that holds it."""
    import numpy as np
    import logalg
    import logalg.cli  # noqa: F401  (so that every layer module is loaded)

    class Counting(logalg.holo.HoloFunction):
        """Root-node wrapper that counts the quadrature points evaluated."""

        def __init__(self, inner, tracer):
            self.inner = inner
            self.tracer = tracer

        def logpolar(self, z):
            self.tracer.counts["holo.points_evaluated"] += getattr(z, "size", 1)
            return self.inner.logpolar(z)

        def to_json(self):
            return self.inner.to_json()

    holders = [m for k, m in sys.modules.items() if k == "logalg" or k.startswith("logalg.")]
    for layer in LAYERS:
        mod = sys.modules[f"logalg.{layer}"]
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            w = _wrap(tracer, layer, name, fn, Counting)
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, key, w)
        for cls_name, meth in _CLASS_METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            fn = inspect.getattr_static(cls, meth).__func__
            setattr(cls, meth, staticmethod(_wrap(tracer, layer, meth, fn, Counting)))

    svd = np.linalg.svd

    @functools.wraps(svd)
    def counted_svd(*args, **kw):
        t = time.perf_counter()
        try:
            return svd(*args, **kw)
        finally:
            tracer.counts["operators.svd_ms"] += 1e3 * (time.perf_counter() - t)
            tracer.counts["operators.svd_calls"] += 1
    np.linalg.svd = counted_svd


# metric name -> span name whose self time it reports
SPAN_METRICS = {
    "cli.main_ms": "cli.main",
    "jsonio.dumps_ms": "jsonio.dumps",
    "stepfn.from_json_ms": "stepfn.from_json",
    "stepfn.lognorm_ms": "stepfn.lognorm",
    "stepfn.dlog_ms": "stepfn.dlog",
    "stepfn.pointwise_ms": "stepfn.pointwise",
    "stepfn.orlicz_fnorm_ms": "stepfn.orlicz_fnorm",
    "stepfn.rearrangement_ms": "stepfn.decreasing_rearrangement",
    "witnesses.cauchy_limit_ms": "witnesses.cauchy_limit",
    "witnesses.convex_split_ms": "witnesses.convex_split",
    "operators.from_json_ms": "operators.from_json",
    "operators.lognorm_op_ms": "operators.lognorm_op",
    "operators.dtau_ms": "operators.dtau",
    "operators.split_at_ms": "operators.split_at",
    "operators.spectral_project_ms": "operators.spectral_project",
    "operators.singular_numbers_ms": "operators.singular_numbers",
    "holo.from_json_ms": "holo.from_json",
    "holo.radial_mean_ms": "holo.radial_mean",
    "holo.boundary_norm_ms": "holo.boundary_norm",
    "holo.smirnov_defect_ms": "holo.smirnov_defect",
}


def layer_metrics(span_sets: list, counts: dict) -> dict:
    """Per-layer metrics from several span lists (each with its own clock) and counters."""
    self_s = defaultdict(float)
    holo_s = 0.0
    for spans in span_sets:
        for name, t in self_times(spans).items():
            self_s[name] += t
        holo_s += inclusive_times(spans, "holo.")
    out = {metric: 1e3 * self_s[span] for metric, span in SPAN_METRICS.items()}
    ops = counts.get("stepfn.binary_ops", 0)
    out["stepfn.breakpoints"] = counts.get("stepfn.breakpoints", 0) / ops if ops else 0.0
    out["jsonio.bytes_out"] = counts.get("jsonio.bytes_out", 0)
    out["operators.svd_calls"] = counts.get("operators.svd_calls", 0)
    out["operators.svd_ms"] = counts.get("operators.svd_ms", 0.0)
    points = counts.get("holo.points_evaluated", 0)
    out["holo.points_evaluated"] = points
    out["holo.points_per_s"] = points / holo_s if holo_s > 0 else 0.0
    return out
