"""Command-line interface: sweep, report, generate, check."""

from __future__ import annotations

import argparse
import sys

from . import io as nio
from .analytics import assortativity, degree_label_corr
from .config import (add_generate_flags, experiment_config, generate_keys,
                     load_experiment_config)
from .errors import DataError, TargetUnreachableError
from .harness import (Report, _num, materialize, run_report, run_sweep,
                      write_sweep_csv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nepoll",
        description="Friendship-paradox polling on graphs: Monte-Carlo "
                    "sweeps, dataset reports, generators, invariant checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep from a config "
                                     "file and write a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, choices=[1], default=1,
                   help="the sweep runs in one process; only 1 is accepted")

    p = sub.add_parser("report", help="one-shot diagnostic of a dataset")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    p.add_argument("--csv", help="also write the report as key,value CSV")

    p = sub.add_parser("generate", help="generate a synthetic graph and "
                                        "label files")
    add_generate_flags(p)  # each sets a config key: see nepoll.config
    p.add_argument("--out", default="graph",
                   help="output prefix (writes PREFIX.edges, PREFIX.labels)")

    p = sub.add_parser("check", help="run the invariant suite on a dataset")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_experiment_config(args.config)
    try:
        rows = run_sweep(cfg)
    except MemoryError as exc:  # replications = 10**11, say
        raise DataError(f"{args.config}: the sweep does not fit in memory "
                        f"({exc})") from None
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(rows, fh)
    for row in rows:
        if row.walk_length is not None:
            print(f"rw_walk_length: {row.walk_length} "
                  f"(tv {row.walk_tv:.1e})")
            break
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _load_report(args) -> Report:
    g = nio.read_edge_list(args.graph)
    labels = defaulted = None
    if args.labels:
        labels, defaulted = nio.read_labels(args.labels, g)
    return run_report(g, labels, defaulted_labels=defaulted)


def _cmd_report(args) -> int:
    report = _load_report(args)
    sys.stdout.write(report.to_text())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("key,value\n")
            fh.writelines(f"{key},{value}\n" for key, value in report.rows())
    return 0


def _cmd_generate(args) -> int:
    try:
        lg, meta = materialize(experiment_config(generate_keys(args)))
    except MemoryError as exc:  # --n 3000000000, say
        raise DataError(f"the graph does not fit in memory ({exc})") from None
    if "erased_stubs" in meta:
        print(f"erased_stubs: {meta['erased_stubs']}")

    print(f"achieved_rkk: {_num(assortativity(lg.graph))}")
    print(f"achieved_rho: {_num(degree_label_corr(lg))}")

    edge_path = f"{args.out}.edges"
    label_path = f"{args.out}.labels"
    nio.write_edge_list(lg.graph, edge_path)
    nio.write_labels(lg, label_path)
    print(f"wrote {edge_path} and {label_path}")
    return 0


def _cmd_check(args) -> int:
    failures = 0
    for name, ok, detail in _load_report(args).invariants():
        print(f"{'ok' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
        failures += not ok
    return 1 if failures else 0


_COMMANDS = {"sweep": _cmd_sweep, "report": _cmd_report,
             "generate": _cmd_generate, "check": _cmd_check}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except TargetUnreachableError as exc:
        print(f"error: TargetUnreachable: {exc} "
              f"achieved={exc.achieved!r}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
