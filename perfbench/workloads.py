"""The benchmark's workloads: their parameters, the input files each one
builds from the seed, and the timed calls into nepoll.

Each workload is a closed loop with one caller in one process: every call
starts when the previous one has returned, and the sweep runs with
``--workers 1``.  The functions that import nepoll run only in the worker
process (``worker.py``), inside the iteration's own directory, so every file
name here is relative and every output is the same in every iteration; the
parent reads the parameters alone.

Configuration-model graphs that get rewired use the structural degree
cut-off k_max ~ sqrt(<k> n).  Without it the largest hub, and with it the
natural assortativity, varies tenfold from seed to seed, and rewiring to a
fixed target took anything from no moves to TargetUnreachable after 2M
proposals.  With it every seed asks the rewiring for the same work.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

SWEEP = {
    "n": 20_000, "alpha": 2.4, "kmin": 3, "kmax": 350,
    "rkk": 0.05, "rkk_tol": 0.005, "label_p": 0.3, "rho": 0.1,
    "rho_tol": 0.01, "budgets": [1, 2, 5, 10, 20, 50, 100, 200],
    "replications": 600, "estimators": ["IP", "UN", "RW", "FN"],
}
REPORT = {
    "config": {"n": 5_000, "alpha": 2.4, "kmin": 2},
    "er": {"n": 4_000, "p": 0.003},
}
GENERATE = {
    "n": 200_000, "alpha": 2.4, "kmin": 2, "kmax": 1_000,
    "rkk": -0.05, "rkk_tol": 0.005, "rho": 0.05, "rho_tol": 0.005,
}


def use_checkout_source():
    """Import nepoll from this checkout's ``src`` and return the package."""
    src = ROOT / "src"
    if not (src / "nepoll" / "__init__.py").is_file():
        raise FileNotFoundError(f"no nepoll sources under {src}")
    sys.path.insert(0, str(src))
    import nepoll
    import nepoll.cli  # noqa: F401  (the layer modules, for the tracer)
    if Path(nepoll.__file__).resolve().parent != src / "nepoll":
        raise ImportError(f"nepoll imported from {nepoll.__file__}, "
                          f"not from {src}")
    return nepoll


@dataclass
class Call:
    """One timed operation of a workload iteration."""

    phase: str
    seconds: float
    ok: bool
    detail: str = ""
    facts: dict = field(default_factory=dict)


def _cli(phase: str, argv: list[str], stdout_path: str | None) -> Call:
    """Run ``nepoll <argv>`` in this process, timing only the call."""
    from nepoll import cli
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if stdout_path is not None:
        Path(stdout_path).write_text(buf.getvalue(), encoding="utf-8")
    return Call(phase, seconds, code == 0, f"exit code {code}")


def _generate_args(spec: dict, model: str, seed: int, out: str) -> list[str]:
    argv = ["generate", "--model", model, "--n", str(spec["n"]),
            "--seed", str(seed), "--out", out]
    for key, flag in (("alpha", "--alpha"), ("kmin", "--kmin"),
                      ("kmax", "--kmax"), ("p", "--p"), ("rkk", "--rkk"),
                      ("rkk_tol", "--rkk-tol"), ("rho", "--rho"),
                      ("rho_tol", "--rho-tol")):
        if key in spec:
            argv += [flag, str(spec[key])]
    return argv


# --- sweep-n20k -------------------------------------------------------------

def sweep_config_text(seed: int) -> str:
    p = SWEEP
    return "\n".join([
        "graph.model = config",
        f"graph.n = {p['n']}",
        f"graph.alpha = {p['alpha']}",
        f"graph.kmin = {p['kmin']}",
        f"graph.kmax = {p['kmax']}",
        f"graph.rkk = {p['rkk']}",
        f"graph.rkk_tol = {p['rkk_tol']}",
        f"labels.p = {p['label_p']}",
        f"labels.rho = {p['rho']}",
        f"labels.tol = {p['rho_tol']}",
        f"budgets = [{', '.join(map(str, p['budgets']))}]",
        f"replications = {p['replications']}",
        f"estimators = [{', '.join(p['estimators'])}]",
        f"seed = {seed}",
    ]) + "\n"


def setup_sweep(seed: int) -> None:
    Path("sweep.cfg").write_text(sweep_config_text(seed), encoding="utf-8")


def run_sweep(seed: int) -> list[Call]:
    return [_cli("sweep", ["sweep", "--config", "sweep.cfg",
                           "--out", "sweep.csv", "--workers", "1"],
                 "sweep.out")]


# --- report-spectral --------------------------------------------------------

REPORT_DATASETS = ("config", "er")


def setup_report(seed: int) -> None:
    for name in REPORT_DATASETS:
        call = _cli("generate",
                    _generate_args(REPORT[name], name, seed, name), None)
        if not call.ok:
            raise RuntimeError(f"generating the {name} dataset failed: "
                               f"{call.detail}")


def run_report(seed: int) -> list[Call]:
    return [_cli(f"report_{name}",
                 ["report", "--graph", f"{name}.edges",
                  "--labels", f"{name}.labels"],
                 f"report_{name}.txt")
            for name in REPORT_DATASETS]


# --- generate-load-n200k ----------------------------------------------------

def setup_generate(seed: int) -> None:
    """No input files: the generator's arguments are the whole input."""


def run_generate(seed: int) -> list[Call]:
    calls = [_cli("generate", _generate_args(GENERATE, "config", seed, "big"),
                  "generate.out")]
    if not calls[-1].ok:
        return calls
    from nepoll import graph as ngraph
    from nepoll import io as nio
    start = time.perf_counter()
    try:
        lg, defaulted = nio.read_labeled_graph("big.edges", "big.labels")
        flags = ngraph.graph_flags(lg.graph)
    except Exception as exc:  # reported as a failed operation
        calls.append(Call("load", time.perf_counter() - start, False,
                          f"{type(exc).__name__}: {exc}"))
        return calls
    seconds = time.perf_counter() - start
    calls.append(Call("load", seconds, True, facts={
        "nodes": lg.graph.node_count,
        "degree_sum": int(lg.graph.degrees.sum()),
        "label_fraction": lg.true_fraction,
        "defaulted": int(defaulted),
        "connected": flags.connected,
        "bipartite": flags.bipartite,
    }))
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: Callable[[int], None]
    run: Callable[[int], list[Call]]
    outputs: tuple[str, ...]   # files whose bytes must not depend on tracing


WORKLOADS = {w.name: w for w in (
    Workload("sweep-n20k",
             SWEEP, setup_sweep, run_sweep, ("sweep.csv", "sweep.out")),
    Workload("report-spectral",
             REPORT, setup_report, run_report,
             ("report_config.txt", "report_er.txt")),
    Workload("generate-load-n200k",
             GENERATE, setup_generate, run_generate,
             ("big.edges", "big.labels", "generate.out")),
)}
