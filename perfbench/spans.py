"""Span recorder that times nepoll from outside, and the per-layer metrics
derived from its spans.

``Tracer.install`` replaces every public function of nepoll's layer
modules with a timing wrapper, at each module attribute where a caller looks
it up: ``nepoll.harness.replicate`` as well as the copy that
``from .harness import ...`` left in ``nepoll.cli``.  Each call becomes one
span (name, start, end, parent span).  Spans stay in memory until the run
ends; ``uninstall`` puts the original functions back.  An untraced run never
creates a Tracer, so it runs the package unmodified.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "harness", "estimators", "sampling", "graph", "io",
          "netgen", "analytics")


# Attributes a span keeps, from the call's bound arguments and its result.
# These give the per-layer work counts; everything else is timing.
_NOTES = {
    "harness.replicate": lambda a, out: {"kind": a["kind"]},
    "sampling.random_walk_endpoints":
        lambda a, out: {"steps": len(a["starts"]) * int(a["length"])},
    "analytics.spectral_summary":
        lambda a, out: {"dense_bytes": 8 * a["g"].node_count ** 2},
    "graph.build_graph": lambda a, out: {"edges": out.edge_count},
    "netgen.configuration_model": lambda a, out: {"erased": int(out[1])},
    "io.read_edge_list": lambda a, out: {"bytes": os.path.getsize(a["path"])},
    "io.write_edge_list": lambda a, out: {"bytes": os.path.getsize(a["path"])},
    "io.write_labels": lambda a, out: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, notes or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn: types.FunctionType, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = note(bound.arguments, out)
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        defining = {f"nepoll.{layer}" for layer in LAYERS}
        modules = [sys.modules["nepoll"]] + [
            sys.modules[name] for name in sorted(defining)]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in defining):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(
                        obj, f"{layer}.{obj.__name__}")
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, notes) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "notes": notes}) + "\n")


class _Totals:
    """Per span name: wall time of the outermost calls, call count, self
    time and the sums of numeric notes.  ``harness.replicate`` spans also
    count under ``harness.replicate.<kind>``."""

    def __init__(self, spans: list[list]):
        self.wall: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.notes: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, notes) in enumerate(spans):
            notes = notes or {}
            self.calls[name] += 1
            self.self_time[name] += end - start - child_time[i]
            if not self._inside_same(spans, parent, name):
                self.wall[name] += end - start
                if "kind" in notes:
                    self.wall[f"{name}.{notes['kind']}"] += end - start
            for key, value in notes.items():
                if isinstance(value, (int, float)):
                    self.notes[name][key] += value

    @staticmethod
    def _inside_same(spans, parent: int, name: str) -> bool:
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def s(self, *names: str) -> float:
        return sum(self.wall.get(n, 0.0) for n in names)

    def note(self, name: str, key: str) -> float:
        return self.notes[name][key] if name in self.notes else 0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


# Unit of each per-layer metric, in the order they are printed.
LAYER_UNITS = {
    "sampling.random_walk_endpoints.s": "s",
    "sampling.random_walk_endpoints.calls": "count",
    "sampling.walk_steps": "count",
    "sampling.walk_steps_per_s": "1/s",
    "harness.replicate.RW.s": "s",
    "harness.replicate.IP.s": "s",
    "harness.replicate.UN.s": "s",
    "harness.replicate.FN.s": "s",
    "harness.replicate.calls": "count",
    "estimators.run_estimator.calls": "count",
    "harness.sweep_labeled.self_s": "s",
    "harness.write_sweep_csv.s": "s",
    "harness.materialize.s": "s",
    "netgen.configuration_model.s": "s",
    "netgen.rewire_to_assortativity.s": "s",
    "netgen.assign_labels.s": "s",
    "netgen.erased_stubs": "count",
    "analytics.spectral_summary.s": "s",
    "analytics.spectral_summary.dense_mb": "MB",
    "analytics.network_stats.s": "s",
    "analytics.exact_error.s": "s",
    "analytics.checks.s": "s",
    "harness.run_report.self_s": "s",
    "io.read_edge_list.s": "s",
    "io.read_edge_list.mb_per_s": "MB/s",
    "io.read_labels.s": "s",
    "graph.build_graph.s": "s",
    "graph.build_graph.edges": "count",
    "graph.graph_flags.s": "s",
    "graph.graph_flags.calls": "count",
    "io.write_edge_list.s": "s",
    "io.write_labels.s": "s",
    "io.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration.

    ``trace.overhead_s`` needs an untraced iteration as well, so the caller
    fills it in.
    """
    t = _Totals(spans)
    walk_s = t.s("sampling.random_walk_endpoints")
    steps = t.note("sampling.random_walk_endpoints", "steps")
    read_s = t.s("io.read_edge_list")
    return {
        "sampling.random_walk_endpoints.s": walk_s,
        "sampling.random_walk_endpoints.calls":
            t.calls.get("sampling.random_walk_endpoints", 0),
        "sampling.walk_steps": steps,
        "sampling.walk_steps_per_s": _rate(steps, walk_s),
        "harness.replicate.RW.s": t.s("harness.replicate.RW"),
        "harness.replicate.IP.s": t.s("harness.replicate.IP"),
        "harness.replicate.UN.s": t.s("harness.replicate.UN"),
        "harness.replicate.FN.s": t.s("harness.replicate.FN"),
        "harness.replicate.calls": t.calls.get("harness.replicate", 0),
        "estimators.run_estimator.calls":
            t.calls.get("estimators.run_estimator", 0),
        "harness.sweep_labeled.self_s":
            t.self_time.get("harness.sweep_labeled", 0.0),
        "harness.write_sweep_csv.s": t.s("harness.write_sweep_csv"),
        "harness.materialize.s": t.s("harness.materialize"),
        "netgen.configuration_model.s": t.s("netgen.configuration_model"),
        "netgen.rewire_to_assortativity.s":
            t.s("netgen.rewire_to_assortativity"),
        "netgen.assign_labels.s": t.s("netgen.assign_labels"),
        "netgen.erased_stubs": t.note("netgen.configuration_model", "erased"),
        "analytics.spectral_summary.s": t.s("analytics.spectral_summary"),
        "analytics.spectral_summary.dense_mb":
            t.note("analytics.spectral_summary", "dense_bytes") / 1e6,
        "analytics.network_stats.s": t.s("analytics.network_stats"),
        "analytics.exact_error.s": t.s(
            "analytics.exact_error_ip", "analytics.exact_error_un",
            "analytics.exact_error_rw", "analytics.exact_error_fn"),
        "analytics.checks.s": t.s(
            "analytics.friendship_paradox_check", "analytics.fosd_check",
            "analytics.budget_threshold"),
        "harness.run_report.self_s":
            t.self_time.get("harness.run_report", 0.0),
        "io.read_edge_list.s": read_s,
        "io.read_edge_list.mb_per_s":
            _rate(t.note("io.read_edge_list", "bytes") / 1e6, read_s),
        "io.read_labels.s": t.s("io.read_labels"),
        "graph.build_graph.s": t.s("graph.build_graph"),
        "graph.build_graph.edges": t.note("graph.build_graph", "edges"),
        "graph.graph_flags.s": t.s("graph.graph_flags"),
        "graph.graph_flags.calls": t.calls.get("graph.graph_flags", 0),
        "io.write_edge_list.s": t.s("io.write_edge_list"),
        "io.write_labels.s": t.s("io.write_labels"),
        "io.bytes_written": t.note("io.write_edge_list", "bytes")
        + t.note("io.write_labels", "bytes"),
        "cli.main.self_s": t.self_time.get("cli.main", 0.0),
    }
