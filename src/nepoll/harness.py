"""Monte-Carlo sweep driver, dataset report, and experiment config files.

A sweep runs ``replications`` independent estimates for every
(estimator, budget) pair and reduces them to empirical bias/variance/MSE
rows next to the closed-form values.  Every replication owns a substream
derived from (master_seed, estimator code, budget, replication index), so
results are byte-identical no matter how many workers execute them.

Config files are flat ``key = value`` text; see ``load_experiment_config``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

import numpy as np

from . import io as nio
from .analytics import (BudgetThreshold, ErrorReport, budget_threshold,
                        exact_error_fn, exact_error_ip, exact_error_rw,
                        exact_error_un, fosd_check, friendship_paradox_check,
                        network_stats, spectral_summary, SPECTRAL_SIZE_CAP)
from .errors import (AssortativityUndefinedError, DegreeLabelCorrUndefinedError,
                     DisconnectedGraphError)
from .estimators import ESTIMATOR_CODES, ESTIMATOR_KINDS, poll_values
from .graph import Graph, LabeledGraph, graph_flags
from .netgen import (ConfigModelSpec, ErdosRenyiSpec, LabelTarget,
                     RewireTarget, assign_labels, configuration_model,
                     erdos_renyi, rewire_to_assortativity)
from .sampling import RandomStream

# Substream keys reserved for graph preparation (estimator replications use
# three-component keys, so these can never collide).
_REWIRE_STREAM_KEY = 101
_LABEL_STREAM_KEY = 102

SWEEP_CSV_HEADER = ("estimator", "budget", "emp_bias", "emp_var", "emp_mse",
                    "exact_bias", "exact_var", "exact_mse")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: where the graph and labels come from, and what to run."""

    graph_source: object            # path, ConfigModelSpec, or ErdosRenyiSpec
    label_source: object            # path or LabelTarget
    budgets: tuple[int, ...] | None = None
    replications: int = 600
    estimators: tuple[str, ...] = ESTIMATOR_KINDS
    walk_length: int | None = None
    master_seed: int = 0
    rewire: RewireTarget | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.budgets is not None:
            if not self.budgets or any(b < 1 for b in self.budgets):
                raise ValueError("budgets must be nonempty, each >= 1")
        unknown = set(self.estimators) - set(ESTIMATOR_KINDS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")


@dataclass(frozen=True)
class SweepRow:
    estimator_kind: str
    budget: int
    emp_bias: float
    emp_var: float
    emp_mse: float
    exact_bias: float | None
    exact_var: float | None
    exact_mse: float | None


def default_budget_grid(node_count: int) -> tuple[int, ...]:
    """Budgets from 1 up to ~1% of n: every integer to 50, then log-spaced."""
    upper = max(1, math.ceil(0.01 * node_count))
    if upper <= 50:
        return tuple(range(1, upper + 1))
    dense = list(range(1, 51))
    log_pts = np.logspace(math.log10(50.0), math.log10(float(upper)), num=20)
    sparse = sorted({int(round(x)) for x in log_pts} - set(dense))
    return tuple(dense + [b for b in sparse if 50 < b <= upper])


def materialize(cfg: ExperimentConfig) -> tuple[LabeledGraph, dict]:
    """Build the labeled graph a config describes.

    Returns ``(labeled_graph, meta)`` where meta records defaulted-label
    counts and achieved correlation values, for reporting.
    """
    meta: dict = {}
    src = cfg.graph_source
    if isinstance(src, ConfigModelSpec):
        g, erased = configuration_model(src)
        meta["erased_stubs"] = erased
    elif isinstance(src, ErdosRenyiSpec):
        g = erdos_renyi(src)
    else:
        g = nio.read_edge_list(src)
    if cfg.rewire is not None:
        rs = RandomStream(cfg.master_seed).substream(_REWIRE_STREAM_KEY)
        g = rewire_to_assortativity(g, cfg.rewire, rs)

    lsrc = cfg.label_source
    if isinstance(lsrc, LabelTarget):
        rs = RandomStream(cfg.master_seed).substream(_LABEL_STREAM_KEY)
        lg = assign_labels(g, lsrc, rs)
    else:
        labels, defaulted = nio.read_labels(lsrc, g)
        meta["defaulted_labels"] = defaulted
        lg = LabeledGraph(g, labels)
    return lg, meta


# ---------------------------------------------------------------------------
# replication engine

def _replicate_range(lg: LabeledGraph, kind: str, budget: int,
                     master_seed: int, lo: int, hi: int,
                     walk_length: int | None,
                     exact_friend_mode: bool) -> np.ndarray:
    seeds = [np.random.SeedSequence(
        entropy=master_seed, spawn_key=(ESTIMATOR_CODES[kind], budget, rep))
             for rep in range(lo, hi)]
    return poll_values(kind, lg, budget, seeds, walk_length=walk_length,
                       exact_friend_mode=exact_friend_mode)


_WORKER_STATE: dict = {}


def _pool_init(lg: LabeledGraph, walk_length: int | None) -> None:
    _WORKER_STATE["lg"] = lg
    _WORKER_STATE["walk_length"] = walk_length


def _pool_task(args) -> tuple[int, np.ndarray]:
    kind, budget, master_seed, lo, hi, exact_friend_mode = args
    values = _replicate_range(_WORKER_STATE["lg"], kind, budget, master_seed,
                              lo, hi, _WORKER_STATE["walk_length"],
                              exact_friend_mode)
    return lo, values


def replicate(lg: LabeledGraph, kind: str, budget: int, replications: int,
              master_seed: int, walk_length: int | None = None, *,
              exact_friend_mode: bool = False,
              workers: int = 1) -> np.ndarray:
    """Estimate values for ``replications`` independent runs, in replication
    order.  The result depends only on the inputs, never on ``workers``."""
    if workers <= 1:
        return _replicate_range(lg, kind, budget, master_seed, 0,
                                replications, walk_length, exact_friend_mode)
    values = np.empty(replications)
    chunk = max(1, math.ceil(replications / (workers * 4)))
    tasks = [(kind, budget, master_seed, lo, min(lo + chunk, replications),
              exact_friend_mode)
             for lo in range(0, replications, chunk)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                             initargs=(lg, walk_length)) as pool:
        for lo, vals in pool.map(_pool_task, tasks):
            values[lo:lo + len(vals)] = vals
    return values


def _empirical_moments(values: np.ndarray,
                       truth: float) -> tuple[float, float, float]:
    """Bias, variance and MSE against ``truth``; reduced with stable
    summation in replication order so output is order-independent."""
    reps = len(values)
    mean = math.fsum(values) / reps
    emp_var = math.fsum((v - mean) ** 2 for v in values) / reps
    emp_mse = math.fsum((v - truth) ** 2 for v in values) / reps
    return mean - truth, emp_var, emp_mse


def _exact_report(lg: LabeledGraph, kind: str, budget: int,
                  stationary_ok: bool) -> ErrorReport | None:
    if kind == "IP":
        return exact_error_ip(lg, budget)
    if kind == "UN":
        return exact_error_un(lg, budget)
    if kind == "FN":
        return exact_error_fn(lg, budget, with_bound=False)
    if kind == "RW" and stationary_ok:
        return exact_error_rw(lg, budget, with_bound=False)
    return None  # finite-length walk law has no closed form here


def run_sweep(cfg: ExperimentConfig, *, workers: int = 1) -> list[SweepRow]:
    lg, _ = materialize(cfg)
    return sweep_labeled(lg, cfg, workers=workers)


def sweep_labeled(lg: LabeledGraph, cfg: ExperimentConfig, *,
                  workers: int = 1) -> list[SweepRow]:
    """Run the sweep on an already-materialized labeled graph."""
    flags = graph_flags(lg.graph)
    if "RW" in cfg.estimators and not flags.connected:
        raise DisconnectedGraphError(
            "sweep includes the random-walk estimator but the graph is "
            "disconnected")
    budgets = cfg.budgets
    if budgets is None:
        budgets = default_budget_grid(lg.graph.node_count)
    truth = lg.true_fraction
    stationary_ok = flags.connected and not flags.bipartite
    rows: list[SweepRow] = []
    for kind in cfg.estimators:
        # the closed forms depend on the budget only through ErrorReport.budget
        exact = _exact_report(lg, kind, 1, stationary_ok)
        for budget in budgets:
            values = replicate(lg, kind, int(budget), cfg.replications,
                               cfg.master_seed, cfg.walk_length,
                               workers=workers)
            emp_bias, emp_var, emp_mse = _empirical_moments(values, truth)
            report = None if exact is None else replace(exact,
                                                        budget=int(budget))
            rows.append(SweepRow(
                estimator_kind=kind, budget=int(budget),
                emp_bias=emp_bias, emp_var=emp_var, emp_mse=emp_mse,
                exact_bias=None if report is None else report.bias,
                exact_var=None if report is None else
                report.variance_at_budget,
                exact_mse=None if report is None else report.mse_at_budget))
    return rows


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_sweep_csv(rows: Iterable[SweepRow], out: TextIO) -> None:
    out.write(",".join(SWEEP_CSV_HEADER) + "\n")
    for r in rows:
        out.write(",".join([r.estimator_kind, str(r.budget),
                            _fmt(r.emp_bias), _fmt(r.emp_var),
                            _fmt(r.emp_mse), _fmt(r.exact_bias),
                            _fmt(r.exact_var), _fmt(r.exact_mse)]) + "\n")


# ---------------------------------------------------------------------------
# one-shot dataset report

@dataclass(frozen=True)
class Report:
    """Diagnostic summary of one dataset."""

    node_count: int
    edge_count: int
    edge_end_count: int
    min_degree: int
    connected: bool
    bipartite: bool
    mean_degree_uniform: float
    mean_degree_friend: float
    mean_degree_neighbor: float
    paradox_holds: bool
    fosd_holds: bool
    assortativity: float | None
    lambda2: float | None
    lambda_n: float | None
    true_fraction: float | None
    degree_label_corr: float | None
    threshold: BudgetThreshold | None
    defaulted_labels: int | None

    def lines(self) -> list[str]:
        def num(x):
            return "undefined" if x is None else repr(float(x))

        out = [
            f"nodes: {self.node_count}",
            f"edges: {self.edge_count}",
            f"edge_end_count: {self.edge_end_count}",
            f"min_degree: {self.min_degree}",
            f"connected: {str(self.connected).lower()}",
            f"bipartite: {str(self.bipartite).lower()}",
            f"mean_degree_uniform: {num(self.mean_degree_uniform)}",
            f"mean_degree_friend: {num(self.mean_degree_friend)}",
            f"mean_degree_neighbor: {num(self.mean_degree_neighbor)}",
            f"friendship_paradox_holds: {str(self.paradox_holds).lower()}",
            f"fosd_holds: {str(self.fosd_holds).lower()}",
            f"assortativity: {num(self.assortativity)}",
        ]
        if self.lambda2 is None:
            out.append("lambda2: skipped (size cap)")
            out.append("lambda_n: skipped (size cap)")
        else:
            out.append(f"lambda2: {num(self.lambda2)}")
            out.append(f"lambda_n: {num(self.lambda_n)}")
        if self.connected:
            out.append("rw_applicable: true")
            out.append("rw_stationary_exact: "
                       f"{str(not self.bipartite).lower()}")
        else:
            out.append("rw_applicable: false")
        if self.true_fraction is not None:
            out.append(f"true_fraction: {num(self.true_fraction)}")
            out.append(f"degree_label_corr: {num(self.degree_label_corr)}")
            if self.threshold is None:
                out.append("budget_threshold: skipped (size cap)")
            elif self.threshold.non_positive:
                out.append("budget_threshold: "
                           f"non-positive ({num(self.threshold.value)})")
            elif self.threshold.unbounded:
                out.append("budget_threshold: inf")
            else:
                out.append(f"budget_threshold: {num(self.threshold.value)}")
        if self.defaulted_labels:
            out.append(f"defaulted_labels: {self.defaulted_labels}")
        return out

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def run_report(g: Graph, labels: np.ndarray | None = None, *,
               defaulted_labels: int | None = None,
               size_cap: int = SPECTRAL_SIZE_CAP) -> Report:
    flags = graph_flags(g)
    paradox = friendship_paradox_check(g)
    fosd = fosd_check(g)

    lg = LabeledGraph(g, labels if labels is not None
                      else np.zeros(g.node_count, dtype=np.int64))
    stats = network_stats(lg)
    try:
        assortativity = stats.assortativity
    except AssortativityUndefinedError:
        assortativity = None

    lambda2 = lambda_n = None
    if g.node_count <= size_cap:
        spectrum = spectral_summary(g, size_cap=size_cap)
        lambda2, lambda_n = spectrum.lambda2, spectrum.lambda_n

    true_fraction = corr = threshold = None
    if labels is not None:
        true_fraction = lg.true_fraction
        try:
            corr = stats.degree_label_corr
        except DegreeLabelCorrUndefinedError:
            corr = None
        if lambda2 is not None:
            threshold = budget_threshold(lg, lambda2=lambda2)

    return Report(
        node_count=g.node_count, edge_count=g.edge_count,
        edge_end_count=g.edge_end_count, min_degree=g.min_degree,
        connected=flags.connected, bipartite=flags.bipartite,
        mean_degree_uniform=paradox.mean_degree_uniform,
        mean_degree_friend=paradox.mean_degree_friend,
        mean_degree_neighbor=paradox.mean_degree_neighbor,
        paradox_holds=paradox.holds, fosd_holds=fosd.holds,
        assortativity=assortativity, lambda2=lambda2, lambda_n=lambda_n,
        true_fraction=true_fraction, degree_label_corr=corr,
        threshold=threshold, defaulted_labels=defaulted_labels)


# ---------------------------------------------------------------------------
# flat key = value config files

def parse_config_text(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', "
                             f"got {raw.strip()!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = _parse_value(val.strip())
    return values


def _parse_value(s: str):
    if s.startswith("[") and s.endswith("]"):
        inner = s[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(x.strip()) for x in inner.split(",")]
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        return s[1:-1]
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def _as_str_tuple(v) -> tuple[str, ...]:
    if isinstance(v, str):
        return tuple(x.strip() for x in v.split(",") if x.strip())
    return tuple(str(x) for x in v)


def load_experiment_config(path) -> ExperimentConfig:
    """Read a flat key = value config file.

    Recognized keys: ``graph.path`` or ``graph.model`` (``config``/``er``)
    with ``graph.n``, ``graph.alpha``, ``graph.kmin``, ``graph.kmax``,
    ``graph.p``; optional ``graph.rkk`` (+ ``graph.rkk_tol``,
    ``graph.rkk_max_iter``); ``labels.path`` or ``labels.p`` with optional
    ``labels.rho`` (+ ``labels.tol``, ``labels.max_iter``); ``budgets``
    (list or ``default``), ``replications``, ``estimators``,
    ``walk_length``, ``seed``.  Generator seeds derive from ``seed``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        kv = parse_config_text(fh.read())

    seed = int(kv.get("seed", 0))

    if "graph.path" in kv:
        graph_source: object = str(kv["graph.path"])
    elif "graph.model" in kv:
        model = str(kv["graph.model"]).lower()
        n = int(kv["graph.n"])
        if model in ("config", "configuration"):
            graph_source = ConfigModelSpec(
                node_count=n,
                power_law_exponent=float(kv["graph.alpha"]),
                k_min=int(kv.get("graph.kmin", 1)),
                k_max=int(kv["graph.kmax"]) if "graph.kmax" in kv else None,
                seed=seed)
        elif model in ("er", "erdos-renyi", "gnp"):
            graph_source = ErdosRenyiSpec(
                node_count=n, edge_probability=float(kv["graph.p"]),
                seed=seed)
        else:
            raise ValueError(f"unknown graph.model {model!r}")
    else:
        raise ValueError("config needs graph.path or graph.model")

    rewire = None
    if "graph.rkk" in kv:
        rewire = RewireTarget(
            target=float(kv["graph.rkk"]),
            tolerance=float(kv.get("graph.rkk_tol", 0.02)),
            max_iterations=int(kv.get("graph.rkk_max_iter", 2_000_000)))

    if "labels.path" in kv:
        label_source: object = str(kv["labels.path"])
    elif "labels.p" in kv:
        label_source = LabelTarget(
            base_probability=float(kv["labels.p"]),
            target=float(kv["labels.rho"]) if "labels.rho" in kv else None,
            tolerance=float(kv.get("labels.tol", 0.02)),
            max_iterations=int(kv.get("labels.max_iter", 2_000_000)))
    else:
        raise ValueError("config needs labels.path or labels.p")

    budgets = None
    if "budgets" in kv and kv["budgets"] != "default":
        budgets = tuple(int(b) for b in kv["budgets"])

    estimators = ESTIMATOR_KINDS
    if "estimators" in kv:
        estimators = _as_str_tuple(kv["estimators"])

    return ExperimentConfig(
        graph_source=graph_source, label_source=label_source,
        budgets=budgets, replications=int(kv.get("replications", 600)),
        estimators=estimators,
        walk_length=int(kv["walk_length"]) if "walk_length" in kv else None,
        master_seed=seed, rewire=rewire)
