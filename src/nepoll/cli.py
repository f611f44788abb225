"""Command-line interface: sweep, report, generate, check."""

from __future__ import annotations

import argparse
import sys

from . import io as nio
from .analytics import network_stats
from .errors import (AssortativityUndefinedError, DataError,
                     DegreeLabelCorrUndefinedError, TargetUnreachableError)
from .harness import (Report, experiment_config, load_experiment_config,
                      materialize, run_report, run_sweep, write_sweep_csv)

# The config key each ``generate`` flag sets, so a flag nothing reads fails
# as its key does in a config file.
_GENERATE_KEYS = {
    "model": "graph.model", "n": "graph.n", "alpha": "graph.alpha",
    "kmin": "graph.kmin", "kmax": "graph.kmax", "p": "graph.p",
    "rkk": "graph.rkk", "rkk_tol": "graph.rkk_tol", "label_p": "labels.p",
    "rho": "labels.rho", "rho_tol": "labels.tol", "seed": "seed"}


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
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("report", help="one-shot diagnostic of a dataset")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    p.add_argument("--csv", help="also write the report as key,value CSV")

    p = sub.add_parser("generate", help="generate a synthetic graph and "
                                        "label files")
    p.add_argument("--model", choices=["config", "er"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, help="power-law exponent (config)")
    p.add_argument("--kmin", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--p", type=float, help="edge probability (er)")
    p.add_argument("--rkk", type=float, help="assortativity target")
    p.add_argument("--rkk-tol", type=float)
    p.add_argument("--label-p", type=float, default=0.5,
                   help="Bernoulli label probability")
    p.add_argument("--rho", type=float, help="degree-label corr target")
    p.add_argument("--rho-tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="graph",
                   help="output prefix (writes PREFIX.edges, PREFIX.labels)")

    p = sub.add_parser("check", help="run the invariant suite on a dataset")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_experiment_config(args.config)
    rows = run_sweep(cfg, workers=args.workers)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(rows, fh)
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
    kv = {key: getattr(args, flag) for flag, key in _GENERATE_KEYS.items()
          if getattr(args, flag) is not None}
    # --max-iter sets the budget of each target given; with no target it
    # sets graph.rkk_max_iter, which nothing reads, so it fails as that key
    if args.max_iter is not None:
        budgets = [budget for target, budget in (
            ("graph.rkk", "graph.rkk_max_iter"),
            ("labels.rho", "labels.max_iter")) if target in kv]
        kv.update(dict.fromkeys(budgets or ["graph.rkk_max_iter"],
                                args.max_iter))
    lg, meta = materialize(experiment_config(kv))
    if "erased_stubs" in meta:
        print(f"erased_stubs: {meta['erased_stubs']}")

    stats = network_stats(lg)
    try:
        print(f"achieved_rkk: {stats.assortativity!r}")
    except AssortativityUndefinedError:
        print("achieved_rkk: undefined")
    try:
        print(f"achieved_rho: {stats.degree_label_corr!r}")
    except DegreeLabelCorrUndefinedError:
        print("achieved_rho: undefined")

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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "check":
            return _cmd_check(args)
    except TargetUnreachableError as exc:
        print(f"error: TargetUnreachable: {exc} "
              f"achieved={exc.achieved!r}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
