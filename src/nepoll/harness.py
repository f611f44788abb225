"""Monte-Carlo sweep driver, dataset report, and experiment config files.

A sweep runs ``replications`` independent estimates for every
(estimator, budget) pair and reduces them to empirical bias/variance/MSE
rows next to the closed-form values.  Each (estimator, budget) cell has one
stream keyed (estimator code, budget) under master_seed, and replication r
reads its own block of it, so its value does not depend on ``replications``.

Config files are flat ``key = value`` text; see ``experiment_config``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from . import io as nio
from .analytics import (BudgetThreshold, ParadoxCheck, SpectralSummary,
                        brute_force_estimator_law, budget_threshold,
                        error_bounds, exact_error, fosd_check,
                        friendship_paradox_check, label_degree_covariance,
                        mean_degree, mean_label_friend, network_stats,
                        spectral_summary)
from .errors import DataError, require_count
from .estimators import (ESTIMATOR_KINDS, estimator_code, poll_values,
                         respondent_law)
from .graph import Graph, GraphFlags, LabeledGraph, graph_flags
from .netgen import (ConfigModelSpec, ErdosRenyiSpec, LabelTarget,
                     RewireTarget, assign_labels, configuration_model,
                     erdos_renyi, rewire_to_assortativity)
from .sampling import LawSampler, WalkLaw, stream, walk_law

# Stream keys reserved for graph preparation (each sweep cell uses the
# two-component key (code, budget), so these can never collide).
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
        require_count("replications", self.replications, 1)
        if self.budgets is not None:
            if not self.budgets:
                raise DataError("budgets must be nonempty")
            for b in self.budgets:
                require_count("budget", b, 1)
        unknown = set(self.estimators) - set(ESTIMATOR_KINDS)
        if unknown:
            raise DataError(f"unknown estimators: {sorted(unknown)}")
        # a repeated cell would replay its stream and write identical rows
        for key, values in (("estimators", self.estimators),
                            ("budgets", self.budgets or ())):
            twice = [v for k, v in enumerate(values) if v in values[:k]]
            if twice:
                raise DataError(f"{key} lists {twice[0]!r} twice")
        if self.walk_length is not None:
            require_count("walk_length", self.walk_length, 0)
        require_count("seed", self.master_seed, 0)


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
        g = rewire_to_assortativity(
            g, cfg.rewire, stream(cfg.master_seed, _REWIRE_STREAM_KEY))

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
    mean = math.fsum(values) / reps
    emp_var = math.fsum((values - mean) ** 2) / reps
    emp_mse = math.fsum((values - truth) ** 2) / reps
    return mean - truth, emp_var, emp_mse


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    lg, _ = materialize(cfg)
    return sweep_labeled(lg, cfg)


def sweep_labeled(lg: LabeledGraph, cfg: ExperimentConfig) -> list[SweepRow]:
    """Run the sweep on an already-materialized labeled graph.

    Each estimator's respondents are drawn from its node law, whose
    sampler is built once per sweep, and its exact columns are the moments
    of that law.  ``RW`` takes the law of a ``cfg.walk_length``-step walk,
    or of the certified length of :func:`walk_law`."""
    flags = graph_flags(lg.graph)
    if "RW" in cfg.estimators and not flags.connected:
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
        bias, var1 = exact_error(lg, kind, walk=walk)
        respondents = LawSampler(respondent_law(lg.graph, kind, walk))
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
    runs, and None on a disconnected graph; ``labeled`` and ``threshold``
    are None when no labels were given."""

    graph: Graph
    flags: GraphFlags
    walk: WalkLaw | None
    paradox: ParadoxCheck
    fosd_holds: bool
    assortativity: float | None
    spectrum: SpectralSummary
    labeled: LabeledGraph | None
    degree_label_corr: float | None
    threshold: BudgetThreshold | None
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
            ("fosd_holds", flag(self.fosd_holds)),
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
            threshold = (f"non-positive ({_num(t.value)})" if t.non_positive
                         else "inf" if t.unbounded else _num(t.value))
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
            ("neighbor_degree_dominance", self.fosd_holds, ""),
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
        exact = {law: exact_error(lg, kind, walk=walk)
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
    lg = LabeledGraph(g, labels if labels is not None
                      else np.zeros(g.node_count, dtype=np.int64))
    stats = network_stats(lg)
    spectrum = spectral_summary(g)
    corr = threshold = None
    if labels is not None:
        corr = stats.degree_label_corr
        threshold = budget_threshold(lg, spectrum.lambda2)
    flags = graph_flags(g)
    return Report(
        graph=g, flags=flags, walk=walk_law(g) if flags.connected else None,
        paradox=friendship_paradox_check(g),
        fosd_holds=fosd_check(g),
        assortativity=stats.assortativity, spectrum=spectrum,
        labeled=None if labels is None else lg, degree_label_corr=corr,
        threshold=threshold, defaulted_labels=defaulted_labels)


# ---------------------------------------------------------------------------
# flat key = value config files

# the part of a line before a '#' that lies outside quotes
_BEFORE_COMMENT = re.compile(r"""(?:[^#'"]|"[^"]*"?|'[^']*'?)*""")


def parse_config_text(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _BEFORE_COMMENT.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"line {lineno}: expected 'key = value', "
                            f"got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise DataError(f"line {lineno}: repeated key {key}")
        values[key] = _parse_value(val.strip())
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


def load_experiment_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file into
    :func:`experiment_config`; a ``DataError`` names ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return experiment_config(parse_config_text(text))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _integer(key: str, value) -> int:
    """``value`` if an int; ``int()`` would truncate 2.7 and take True."""
    if type(value) is not int:
        raise DataError(f"{key} must be an integer, got {value!r}")
    return value


def _number(key: str, value) -> float:
    """Like ``float(value)``, but a bool, list or string names the key."""
    if type(value) not in (int, float):
        raise DataError(f"{key} must be a number, got {value!r}")
    return float(value)


def _budgets(key: str, value) -> tuple[int, ...] | None:
    if value == "default":
        return None
    if not isinstance(value, list):
        raise DataError(f"{key} must be a list or default, got {value!r}")
    return tuple(_integer(key, b) for b in value)


def _estimators(key: str, value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(x.strip() for x in value.split(",") if x.strip())
    if not isinstance(value, list):
        raise DataError(f"{key} must be a list, got {value!r}")
    return tuple(str(x) for x in value)


_CONFIG_KEYS = frozenset((
    "graph.path", "graph.model", "graph.n", "graph.alpha", "graph.kmin",
    "graph.kmax", "graph.p", "graph.rkk", "graph.rkk_tol",
    "graph.rkk_max_iter", "labels.path", "labels.p", "labels.rho",
    "labels.tol", "labels.max_iter", "budgets", "replications", "estimators",
    "walk_length", "seed"))


def _unread(kv: dict[str, object], keys: tuple[str, ...], why: str) -> None:
    """Reject the first of ``keys`` that ``kv`` sets: nothing reads it."""
    for key in keys:
        if key in kv:
            raise DataError(f"{key} is not read {why}")


def _need(kv: dict[str, object], *keys: str) -> None:
    for key in keys:
        if key not in kv:
            raise DataError(f"config needs {key}")


def _given(kv: dict[str, object], **fields) -> dict[str, object]:
    """``{name: check(key, kv[key])}`` for each ``name=(key, check)`` whose
    key ``kv`` sets; a dataclass built from it keeps every other default."""
    return {name: check(key, kv[key])
            for name, (key, check) in fields.items() if key in kv}


def experiment_config(kv: dict[str, object]) -> ExperimentConfig:
    """The sweep that flat config keys describe.

    Recognized keys: ``graph.path`` or ``graph.model`` (``config``/``er``)
    with ``graph.n``, ``graph.alpha``, ``graph.kmin``, ``graph.kmax``,
    ``graph.p``; optional ``graph.rkk`` (+ ``graph.rkk_tol``,
    ``graph.rkk_max_iter``); ``labels.path`` or ``labels.p`` with optional
    ``labels.rho`` (+ ``labels.tol``, ``labels.max_iter``); ``budgets``
    (list or ``default``), ``replications``, ``estimators``,
    ``walk_length``, ``seed``.  Generator seeds derive from ``seed``.  A
    key left out keeps the default of the field it sets.  A missing or
    unknown key, a key nothing reads (``graph.alpha`` with
    ``graph.model = er``, ``labels.tol`` without ``labels.rho``), both
    sources of the graph or of the labels, or a bad value such as a float
    or a boolean where an integer belongs, raises ``DataError`` naming the
    key.
    """
    for key in kv:
        if key not in _CONFIG_KEYS:
            raise DataError(f"unknown key {key}")
    for path_key, model_key in (("graph.path", "graph.model"),
                                ("labels.path", "labels.p")):
        if path_key in kv and model_key in kv:
            raise DataError(f"{path_key} and {model_key} both given; "
                            "set one source")
    seed = ("seed", _integer)  # read by the generators and the sweep

    if "graph.path" in kv:
        _unread(kv, ("graph.n", "graph.alpha", "graph.kmin", "graph.kmax",
                     "graph.p"), "with graph.path")
        graph_source: object = str(kv["graph.path"])
    elif "graph.model" in kv:
        model = str(kv["graph.model"]).lower()
        if model in ("config", "configuration"):
            _unread(kv, ("graph.p",), f"with graph.model = {model}")
            _need(kv, "graph.n", "graph.alpha")
            graph_source = ConfigModelSpec(**_given(
                kv, node_count=("graph.n", _integer),
                power_law_exponent=("graph.alpha", _number),
                k_min=("graph.kmin", _integer),
                k_max=("graph.kmax", _integer), seed=seed))
        elif model in ("er", "erdos-renyi", "gnp"):
            _unread(kv, ("graph.alpha", "graph.kmin", "graph.kmax"),
                    f"with graph.model = {model}")
            _need(kv, "graph.n", "graph.p")
            graph_source = ErdosRenyiSpec(**_given(
                kv, node_count=("graph.n", _integer),
                edge_probability=("graph.p", _number), seed=seed))
        else:
            raise DataError(f"unknown graph.model {model!r}")
    else:
        raise DataError("config needs graph.path or graph.model")

    rewire = None
    if "graph.rkk" in kv:
        rewire = RewireTarget(**_given(
            kv, target=("graph.rkk", _number),
            tolerance=("graph.rkk_tol", _number),
            max_iterations=("graph.rkk_max_iter", _integer)))
    else:
        _unread(kv, ("graph.rkk_tol", "graph.rkk_max_iter"),
                "without graph.rkk")

    if "labels.path" in kv:
        _unread(kv, ("labels.rho", "labels.tol", "labels.max_iter"),
                "with labels.path")
        label_source: object = str(kv["labels.path"])
    elif "labels.p" in kv:
        if "labels.rho" not in kv:
            _unread(kv, ("labels.tol", "labels.max_iter"),
                    "without labels.rho")
        label_source = LabelTarget(**_given(
            kv, base_probability=("labels.p", _number),
            target=("labels.rho", _number),
            tolerance=("labels.tol", _number),
            max_iterations=("labels.max_iter", _integer)))
    else:
        raise DataError("config needs labels.path or labels.p")

    return ExperimentConfig(
        graph_source=graph_source, label_source=label_source, rewire=rewire,
        **_given(kv, budgets=("budgets", _budgets),
                 replications=("replications", _integer),
                 estimators=("estimators", _estimators),
                 walk_length=("walk_length", _integer), master_seed=seed))
