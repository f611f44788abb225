"""Benchmark of nepoll: one workload, timed through the public CLI and
library calls, with its outputs checked against independent references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (parameters in workloads.py): ``sweep-n20k``, ``report-spectral``
and ``generate-load-n200k``.  Every iteration runs in a fresh worker process
(worker.py), so ``setup_s`` (interpreter start, imports, input files) and
``peak_rss_mb`` (ru_maxrss) belong to that iteration alone.  Iterations
repeat until the next one would end after S seconds; each metric is the
median over them.  With ``--trace 0`` the last line carries the end-to-end
metrics.  With ``--trace 1`` untraced and traced iterations alternate, and
the last line carries the per-layer metrics of the traced ones (see
spans.py and README.md).

Human-readable lines come first: every metric with its unit, the checks,
and a ``run_record:`` line.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; attempted
operations are the nepoll calls of every iteration plus the output checks.
The exit code is 0 whenever that line is printed, and 1 when no iteration
succeeded (for instance when the checkout holds no nepoll sources).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import CHECKS
from spans import LAYER_UNITS
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
# An iteration takes 10 to 25 s.  A run of up to 60 s, one worker that hangs
# until this timeout and the output checks still end within 180 s.
WORKER_TIMEOUT_S = 90.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Iteration:
    traced: bool
    directory: Path
    error: str = ""
    setup_s: float = 0.0
    rss_mb: float = 0.0
    calls: list[dict] = field(default_factory=list)
    layers: dict | None = None
    openblas_threads: int | None = None

    @property
    def wall_s(self) -> float:
        return sum(c["seconds"] for c in self.calls)

    def phase_s(self, phase: str) -> float:
        return sum(c["seconds"] for c in self.calls if c["phase"] == phase)

    def output_digest(self, names: tuple[str, ...]) -> str:
        h = hashlib.sha256()
        for name in names:
            h.update(name.encode())
            h.update((self.directory / name).read_bytes())
        return h.hexdigest()


def run_iteration(workload: str, seed: int, traced: bool,
                  directory: Path) -> Iteration:
    directory.mkdir(parents=True)
    it = Iteration(traced, directory)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--dir", str(directory)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        it.error = f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"
        return it
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        it.error = f"worker exit code {proc.returncode}: {' | '.join(tail)}"
        return it
    result = json.loads((directory / "result.json").read_text())
    it.setup_s = result["ready"] - spawned
    it.rss_mb = result["rss_kb"] / 1024.0
    it.calls = result["calls"]
    it.layers = result["layers"]
    it.openblas_threads = result["openblas_threads"]
    return it


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nepoll").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_record(args, iterations: list[Iteration]) -> dict:
    threads = {it.openblas_threads for it in iterations if not it.error}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "params": WORKLOADS[args.workload].params,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "iterations": len(iterations),
        "traced_iterations": sum(it.traced for it in iterations),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "networkx": metadata.version("networkx"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "openblas_threads": sorted(threads, key=str),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(its: list[Iteration]) -> dict[str, float]:
    return {
        "setup_s": median_of([it.setup_s for it in its]),
        "wall_s": median_of([it.wall_s for it in its]),
        "peak_rss_mb": median_of([it.rss_mb for it in its]),
    }


def workload_extras(workload: str, its: list[Iteration]) -> dict:
    """The figures only one workload has; printed, not in the JSON line."""
    if workload == "sweep-n20k":
        p = WORKLOADS[workload].params
        estimates = (len(p["estimators"]) * len(p["budgets"])
                     * p["replications"])
        sweep_s = median_of([it.phase_s("sweep") for it in its])
        return {"estimates_per_s": (estimates / sweep_s, "1/s")}
    if workload == "generate-load-n200k":
        return {"generate_s": (median_of([it.phase_s("generate")
                                          for it in its]), "s"),
                "load_s": (median_of([it.phase_s("load") for it in its]), "s")}
    return {}


def measure(args) -> list[Iteration]:
    """Iterations until the next would end after ``--seconds``, or until a
    worker fails: the next one would fail the same way."""
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.monotonic()
    iterations: list[Iteration] = []
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        iterations.append(run_iteration(args.workload, args.seed, traced,
                                        workdir / f"it{len(iterations)}"))
        if iterations[-1].error:
            return iterations
        elapsed = time.monotonic() - start
        per_iteration = elapsed / len(iterations)
        need_traced = args.trace and not any(it.traced for it in iterations)
        if not need_traced and elapsed + per_iteration > args.seconds:
            return iterations


def check_outputs(args, good: list[Iteration]) -> list[tuple[str, bool, str]]:
    """Every complete iteration, traced or not, wrote the same bytes; the
    first one's outputs also pass the workload's reference checks."""
    workload = WORKLOADS[args.workload]
    complete = [it for it in good if all(c["ok"] for c in it.calls)]
    digests = {it.output_digest(workload.outputs) for it in complete}
    checks = [("outputs_identical_across_iterations", len(digests) == 1,
               f"{len(digests)} distinct output sets over {len(complete)} "
               f"complete iterations (traced and untraced)")]
    if complete:
        facts = {k: v for c in complete[0].calls
                 for k, v in c["facts"].items()}
        checks += CHECKS[args.workload](complete[0].directory,
                                        workload.params, facts)
    return checks


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(
        description="nepoll benchmark (one workload per invocation)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    iterations = measure(args)
    good = [it for it in iterations if not it.error]
    attempted = failed = 0
    for it in iterations:
        print(f"iteration {it.directory.name}: traced={int(it.traced)} "
              f"setup_s={it.setup_s:.4f} wall_s={it.wall_s:.4f} "
              f"rss_mb={it.rss_mb:.1f}"
              + (f" FAIL {it.error}" if it.error else ""))
        attempted += 1 if it.error else len(it.calls)
        failed += 1 if it.error else sum(not c["ok"] for c in it.calls)
        for c in it.calls:
            if not c["ok"]:
                print(f"FAIL {it.directory.name} {c['phase']}: {c['detail']}")
    if not good:
        print("error: no iteration succeeded", file=sys.stderr)
        return 1

    checks_start = time.monotonic()
    for name, ok, detail in check_outputs(args, good):
        attempted += 1
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'} check {name}: {detail}")
    print(f"checks took {time.monotonic() - checks_start:.1f} s")

    untraced = [it for it in good if not it.traced]
    traced = [it for it in good if it.traced]
    e2e = end_to_end(untraced)
    for name, value in e2e.items():
        print(f"{name}: {value!r} {END_TO_END_UNITS[name]} "
              f"(median of {len(untraced)} untraced iterations)")
    for name, (value, unit) in workload_extras(args.workload,
                                               untraced).items():
        print(f"{name}: {value!r} {unit}")
    print(f"failed_ratio: {failed / attempted!r} ({failed} of {attempted} "
          f"operations)")

    if args.trace:
        layers = {name: median_of([it.layers[name] for it in traced])
                  for name in LAYER_UNITS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (
            median_of([it.wall_s for it in traced]) - e2e["wall_s"])
        for name, value in layers.items():
            print(f"{name}: {value!r} {LAYER_UNITS[name]} "
                  f"(median of {len(traced)} traced iterations)")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print("run_record: " + json.dumps(run_record(args, iterations)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
