"""Monte-Carlo sweep driver and dataset report.

A sweep runs ``replications`` independent estimates for every
(estimator, budget) pair and reduces them to empirical bias/variance/MSE
rows next to the closed-form values.  Each (estimator, budget) cell has one
stream keyed (estimator code, budget) under master_seed, and replication r
reads its own block of it, so its value does not depend on ``replications``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from . import io as nio
from .analytics import (ParadoxCheck, SpectralSummary, assortativity,
                        brute_force_estimator_law, budget_threshold,
                        degree_label_corr, error_bounds, exact_error,
                        friendship_paradox_check, label_degree_covariance,
                        mean_degree, mean_label_friend, spectral_summary)
from .config import ExperimentConfig
from .errors import DataError, require_count
from .estimators import estimator_code, poll_values, respondent_law
from .graph import Graph, GraphFlags, LabeledGraph, graph_flags
from .netgen import (ConfigModelSpec, ErdosRenyiSpec, LabelTarget,
                     _EdgeSwaps, assign_labels, configuration_model,
                     erdos_renyi)
from .sampling import LawSampler, WalkLaw, stream, walk_law

# Stream keys reserved for graph preparation (each sweep cell uses the
# two-component key (code, budget), so these can never collide).
_REWIRE_STREAM_KEY = 101
_LABEL_STREAM_KEY = 102

SWEEP_CSV_HEADER = ("estimator", "budget", "emp_bias", "emp_var", "emp_mse",
                    "exact_bias", "exact_var", "exact_mse")


@dataclass(frozen=True)
class SweepRow:
    """One (estimator, budget) cell.  An ``RW`` row also names the walk
    that ran: its length and the total variation of its law to d/M."""

    estimator_kind: str
    budget: int
    emp_bias: float
    emp_var: float
    emp_mse: float
    exact_bias: float
    exact_var: float
    exact_mse: float
    walk_length: int | None = None
    walk_tv: float | None = None


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

    Returns ``(labeled_graph, meta)``: meta holds ``erased_stubs`` for a
    configuration model and ``defaulted_labels`` for a label file.
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
        swaps = _EdgeSwaps(g, cfg.rewire)
        del g  # the swap chain keeps the source's keys, not its edges
        g = swaps.rewired(stream(cfg.master_seed, _REWIRE_STREAM_KEY))

    lsrc = cfg.label_source
    if isinstance(lsrc, LabelTarget):
        lg = assign_labels(g, lsrc,
                           stream(cfg.master_seed, _LABEL_STREAM_KEY))
    else:
        labels, defaulted = nio.read_labels(lsrc, g)
        meta["defaulted_labels"] = defaulted
        lg = LabeledGraph(g, labels)
    return lg, meta


# ---------------------------------------------------------------------------
# replication engine

def replicate(lg: LabeledGraph, kind: str, budget: int, replications: int,
              master_seed: int,
              respondents: LawSampler | None = None) -> np.ndarray:
    """Estimate values for ``replications`` independent runs of the cell
    (``kind``, ``budget``), in replication order, polled from the cell's
    stream through ``respondents`` (see :func:`poll_values`)."""
    cell = stream(master_seed, estimator_code(kind),
                  require_count("budget", budget, 1))
    return poll_values(kind, lg, budget, cell, replications,
                       respondents=respondents)


def _empirical_moments(values: np.ndarray,
                       truth: float) -> tuple[float, float, float]:
    """Bias, variance and MSE against ``truth``; reduced with stable
    summation in replication order so output is order-independent."""
    reps = len(values)
    mean = math.fsum(values.tolist()) / reps
    emp_var = math.fsum(((values - mean) ** 2).tolist()) / reps
    emp_mse = math.fsum(((values - truth) ** 2).tolist()) / reps
    return mean - truth, emp_var, emp_mse


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """The sweep of ``cfg``; a ``DataError`` that a graph read from a file
    raises in the sweep (a walk on a disconnected graph) names the file."""
    lg, _ = materialize(cfg)
    try:
        return sweep_labeled(lg, cfg)
    except DataError as exc:
        if isinstance(cfg.graph_source, (ConfigModelSpec, ErdosRenyiSpec)):
            raise
        raise DataError(f"{cfg.graph_source}: {exc}") from None


def sweep_labeled(lg: LabeledGraph, cfg: ExperimentConfig) -> list[SweepRow]:
    """Run the sweep on an already-materialized labeled graph.

    Each estimator's node law is built once per sweep: its respondents
    are drawn from it, and its exact columns are its moments.  ``RW``
    takes the law of a ``cfg.walk_length``-step walk, or of the certified
    length of :func:`walk_law`, which needs a connected graph."""
    if "RW" in cfg.estimators and not graph_flags(lg.graph).connected:
        raise DataError(
            "sweep includes the random-walk estimator but the graph is "
            "disconnected")
    budgets = cfg.budgets
    if budgets is None:
        budgets = default_budget_grid(lg.graph.node_count)
    truth = lg.true_fraction
    rows: list[SweepRow] = []
    for kind in cfg.estimators:
        walk = length = tv = None
        if kind == "RW":
            walk = walk_law(lg.graph, cfg.walk_length)
            length, tv = walk.length, walk.tv
        law = respondent_law(lg.graph, kind, walk)
        bias, var1 = exact_error(lg, kind, law)
        respondents = LawSampler(law)
        for budget in budgets:
            values = replicate(lg, kind, budget, cfg.replications,
                               cfg.master_seed, respondents)
            rows.append(SweepRow(
                kind, budget, *_empirical_moments(values, truth), bias,
                var1 / budget, bias * bias + var1 / budget, length, tv))
    return rows


def _num(x: float | None) -> str:
    """A report value: ``undefined`` where the quantity has none."""
    return "undefined" if x is None else repr(float(x))


def write_sweep_csv(rows: Iterable[SweepRow], out: TextIO) -> None:
    out.write(",".join(SWEEP_CSV_HEADER) + "\n")
    for r in rows:
        out.write(",".join([r.estimator_kind, str(r.budget)] + [
            repr(float(x)) for x in (r.emp_bias, r.emp_var, r.emp_mse,
                                     r.exact_bias, r.exact_var, r.exact_mse)
        ]) + "\n")


# ---------------------------------------------------------------------------
# one-shot dataset report

@dataclass(frozen=True)
class Report:
    """The library results of one pass over a dataset.  ``walk`` is the
    certified walk law of :func:`walk_law`, the walk a sweep's ``RW``
    runs, and None on a disconnected graph; ``fn_law`` is the ``FN``
    respondents' law, which ``paradox`` and the exact ``FN`` error share;
    ``labeled`` and ``threshold`` are None when no labels were given."""

    graph: Graph
    flags: GraphFlags
    walk: WalkLaw | None
    fn_law: np.ndarray
    paradox: ParadoxCheck
    assortativity: float | None
    spectrum: SpectralSummary
    labeled: LabeledGraph | None
    degree_label_corr: float | None
    threshold: float | None
    defaulted_labels: int | None

    def rows(self) -> list[tuple[str, str]]:
        """``(key, value)`` text pairs, in print order."""
        def flag(x):
            return str(x).lower()

        g, flags, paradox = self.graph, self.flags, self.paradox
        out = [
            ("nodes", str(g.node_count)),
            ("edges", str(g.edge_count)),
            ("edge_end_count", str(g.edge_end_count)),
            ("min_degree", str(g.min_degree)),
            ("connected", flag(flags.connected)),
            ("bipartite", flag(flags.bipartite)),
            ("mean_degree_uniform", _num(paradox.mean_degree_uniform)),
            ("mean_degree_friend", _num(paradox.mean_degree_friend)),
            ("mean_degree_neighbor", _num(paradox.mean_degree_neighbor)),
            ("friendship_paradox_holds", flag(paradox.holds)),
            ("fosd_holds", flag(paradox.fosd_holds)),
            ("assortativity", _num(self.assortativity)),
            ("lambda2", _num(self.spectrum.lambda2)),
            ("lambda_n", _num(self.spectrum.lambda_n)),
            ("lambda_n_exact", flag(self.spectrum.lambda_n_exact)),
            ("rw_applicable", flag(flags.connected)),
        ]
        if self.walk is not None:
            out += [("rw_walk_length", str(self.walk.length)),
                    ("rw_walk_tv", _num(self.walk.tv))]
        if self.labeled is not None:
            t = self.threshold
            threshold = (f"non-positive ({_num(t)})" if t <= 0.0
                         else "inf" if t == math.inf else _num(t))
            out += [("true_fraction", _num(self.labeled.true_fraction)),
                    ("degree_label_corr", _num(self.degree_label_corr)),
                    ("budget_threshold", threshold)]
        if self.defaulted_labels:
            out.append(("defaulted_labels", str(self.defaulted_labels)))
        return out

    def to_text(self) -> str:
        return "".join(f"{key}: {value}\n" for key, value in self.rows())

    def invariants(self) -> list[tuple[str, bool, str]]:
        """``(name, ok, detail)`` of every check, in print order.  On a
        labeled graph: the walk-bias identity, and the paper's bounds of
        :func:`error_bounds` at the report's spectrum on the UN and
        stationary RW variances (and the ordering of the two bounds) and
        on the squared FN bias.  The enumeration oracle refereeing the
        closed forms, the certified walk's law among them, loops in pure
        Python, so it runs on labeled graphs of at most 200 nodes."""
        g, paradox, spectrum, lg = (self.graph, self.paradox, self.spectrum,
                                    self.labeled)
        out = [
            ("edge_list_valid", True,
             f"{g.node_count} nodes, {g.edge_count} edges"),
            ("degree_sum_is_twice_edges",
             int(g.degrees.sum()) == 2 * g.edge_count, ""),
            ("min_degree_positive", g.min_degree >= 1, ""),
            ("friendship_paradox", paradox.holds,
             f"means {paradox.mean_degree_uniform:.4f} <= "
             f"{paradox.mean_degree_friend:.4f}, "
             f"{paradox.mean_degree_neighbor:.4f}"),
            ("neighbor_degree_dominance", paradox.fosd_holds, ""),
        ]
        expansion_ok = self.flags.connected and not self.flags.bipartite
        out += [("top_singular_value_is_one",
                 spectrum.top_residual <= 1e-9, ""),
                ("lambda2_below_one_iff_connected_nonbipartite",
                 (spectrum.lambda2 < 1.0 - 1e-9) == expansion_ok,
                 f"lambda2={spectrum.lambda2:.6f}")]
        if lg is None:
            return out
        out.append(("labels_valid", True,
                    f"true_fraction={lg.true_fraction:.4f}, "
                    f"defaulted={self.defaulted_labels}"))
        laws = [("IP", "IP", None), ("UN", "UN", None),
                ("RW-stationary", "RW", None)]
        if self.walk is not None:
            laws.append(("RW-walk", "RW", self.walk))
        laws.append(("FN", "FN", None))
        exact = {law: exact_error(lg, kind, self.fn_law if kind == "FN"
                                  else respondent_law(g, kind, walk))
                 for law, kind, walk in laws}
        slack = 1e-12
        bounds = error_bounds(lg, spectrum.lambda2, spectrum.lambda_n)
        # the RW bias two ways: cov(label, degree) / E{d}, E{f(friend)} - f
        gap = abs(label_degree_covariance(lg) / mean_degree(g)
                  - (mean_label_friend(lg) - lg.true_fraction))
        un_var, rw_var = exact["UN"][1], exact["RW-stationary"][1]
        fn_bias_sq = exact["FN"][0] ** 2
        out += [
            ("walk_bias_identity", gap <= slack, f"deviation {gap:.1e}"),
            ("un_variance_within_bound",
             un_var <= bounds.un_variance + slack,
             f"{un_var:.6g} <= {bounds.un_variance:.6g}"),
            ("rw_variance_within_bound",
             rw_var <= bounds.rw_variance + slack
             and bounds.rw_variance <= bounds.un_variance + slack,
             f"{rw_var:.6g} <= {bounds.rw_variance:.6g} "
             f"<= {bounds.un_variance:.6g}"),
            ("fn_bias_within_bound", fn_bias_sq <= bounds.fn_bias_sq + slack,
             f"bias^2 {fn_bias_sq:.6g} <= {bounds.fn_bias_sq:.6g}"),
        ]
        if g.node_count <= 200:
            for law, kind, walk in laws:
                bias, var1 = exact[law]
                mean, var = brute_force_estimator_law(lg, kind, walk)
                deviation = max(abs(bias - (mean - lg.true_fraction)),
                                abs(var1 - var))
                out.append((f"closed_form_matches_enumeration_{law}",
                            deviation <= 1e-10, f"deviation {deviation:.1e}"))
        return out


def run_report(g: Graph, labels: np.ndarray | None = None, *,
               defaulted_labels: int | None = None) -> Report:
    """Compute every quantity of a dataset's :class:`Report` once."""
    spectrum = spectral_summary(g)
    lg = corr = threshold = None
    if labels is not None:
        lg = LabeledGraph(g, labels)
        corr = degree_label_corr(lg)
        threshold = budget_threshold(lg, spectrum.lambda2)
    flags = graph_flags(g)
    fn_law = respondent_law(g, "FN")
    return Report(
        graph=g, flags=flags, walk=walk_law(g) if flags.connected else None,
        fn_law=fn_law, paradox=friendship_paradox_check(g, fn_law),
        assortativity=assortativity(g), spectrum=spectrum, labeled=lg,
        degree_label_corr=corr, threshold=threshold,
        defaulted_labels=defaulted_labels)
