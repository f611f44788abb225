"""One iteration of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --dir DIR

Imports nepoll from the checkout, builds the workload's inputs in DIR, then
runs the timed calls (under the span recorder when ``--trace 1``) and writes
``DIR/result.json``.  The peak RSS is read right after the calls, before the
result is assembled.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import resource
import time
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, use_checkout_source


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    use_checkout_source()
    os.chdir(args.dir)
    workload = WORKLOADS[args.workload]
    workload.setup(args.seed)
    ready = time.monotonic()

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        calls = workload.run(args.seed)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        tracer.write("spans.jsonl")
    Path("result.json").write_text(json.dumps({
        "ready": ready,
        "rss_kb": rss_kb,
        "calls": [dataclasses.asdict(c) for c in calls],
        "layers": layers,
        "openblas_threads": openblas_threads(),
    }), encoding="utf-8")


if __name__ == "__main__":
    main()
