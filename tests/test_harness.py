import io
import math
import re
import sys

import numpy as np
import pytest

from nepoll import (ConfigModelSpec, DataError, ErdosRenyiSpec,
                    ExperimentConfig, LabelTarget, LabeledGraph, LawSampler,
                    RewireTarget, SWEEP_CSV_HEADER, brute_force_estimator_law,
                    build_graph, default_budget_grid, exact_error,
                    load_experiment_config, materialize, poll_values,
                    replicate, respondent_law, run_report, run_sweep,
                    sweep_labeled, walk_law, write_sweep_csv)
from nepoll import estimators, harness, netgen, stream
from nepoll.estimators import estimator_code
from nepoll.config import parse_config_text
from nepoll.harness import _empirical_moments
from nepoll.sampling import WALK_TV_TOLERANCE

from _reference import polled_in_ranges


def _star_files(tmp_path):
    edges = tmp_path / "star.edges"
    labels = tmp_path / "star.labels"
    edges.write_text("0 1\n0 2\n0 3\n")
    labels.write_text("0 1\n1 0\n2 0\n3 0\n")
    return str(edges), str(labels)


def test_sweep_star_naive_matches_enumerated_law(tmp_path):
    edges, labels = _star_files(tmp_path)
    reps = 100_000
    cfg = ExperimentConfig(graph_source=edges, label_source=labels,
                           budgets=(1,), replications=reps,
                           estimators=("UN",), master_seed=77)
    row = run_sweep(cfg)[0]
    mean, var = brute_force_estimator_law(
        materialize(cfg)[0], "UN")
    assert (mean, var) == (0.75, 0.1875)
    se_mean = math.sqrt(var / reps)
    assert abs(row.emp_bias - 0.5) <= 4 * se_mean
    # variance of the squared error term bounds the MSE/variance noise
    fourth = np.mean((np.array([0.0, 1.0, 1.0, 1.0]) - 0.75) ** 4)
    se_mse = math.sqrt((fourth - var ** 2) / reps)
    assert abs(row.emp_var - 0.1875) <= 4 * se_mse
    assert row.exact_bias == pytest.approx(0.5, abs=1e-12)
    assert row.exact_var == pytest.approx(0.1875, abs=1e-12)


@pytest.mark.parametrize("kind,chord", [
    ("FN", False),
    ("RW", True),
])
def test_replications_converge_to_closed_form(star_lg, star_chord, kind,
                                              chord):
    # empirical moments approach the closed-form ones at the 1/sqrt(reps)
    # rate; checked at 4 sigma.  Walks need the non-bipartite star plus
    # chord, whose walk law is within 0.73**60 ~ 6e-9 of the stationary
    # law after 60 steps.
    reps = 100_000
    lg = LabeledGraph(star_chord, [1, 0, 0, 1]) if chord else star_lg
    mean, var = brute_force_estimator_law(lg, kind)
    law = respondent_law(lg.graph, kind, walk_law(lg.graph, 60))
    values = replicate(lg, kind, budget=1, replications=reps,
                       master_seed=88, respondents=LawSampler(law))
    assert abs(values.mean() - mean) <= 4 * math.sqrt(var / reps)
    fourth = np.mean((values - mean) ** 4)
    se_var = math.sqrt(max(fourth - var ** 2, 0.0) / reps)
    # second-order term covers the symmetric-Bernoulli case where the
    # first-order variance of the sample variance vanishes
    assert abs(values.var() - var) <= 4 * se_var + 16 * var / reps


def test_sweep_constant_labels_zero_mse(tmp_path):
    edges = tmp_path / "g.edges"
    labels = tmp_path / "g.labels"
    edges.write_text("0 1\n0 2\n0 3\n1 2\n")   # connected, non-bipartite
    labels.write_text("0 1\n1 1\n2 1\n3 1\n")
    cfg = ExperimentConfig(graph_source=str(edges), label_source=str(labels),
                           budgets=(1, 3), replications=40, master_seed=5)
    for row in run_sweep(cfg):
        assert row.emp_mse == 0.0
        assert row.emp_bias == 0.0


def test_sweep_mse_identity_and_budget_scaling(star_lg):
    cfg = ExperimentConfig(graph_source=None, label_source=None,
                           budgets=(1, 4), replications=10_000,
                           estimators=("UN",), master_seed=13)
    rows = sweep_labeled(star_lg, cfg)
    for row in rows:
        assert abs(row.emp_mse - (row.emp_bias ** 2 + row.emp_var)) <= 1e-9
    single, at_four = rows
    assert at_four.emp_var == pytest.approx(single.emp_var / 4, rel=0.15)


def test_sweep_rw_exact_on_bipartite(star_lg):
    # the walk on the star never mixes, so it keeps the cap, and its exact
    # columns hold the moments of the law it ends in after 20 steps
    cfg = ExperimentConfig(graph_source=None, label_source=None,
                           budgets=(2,), replications=10,
                           estimators=("RW", "UN"), master_seed=1)
    rw, un = sweep_labeled(star_lg, cfg)
    assert (rw.walk_length, un.walk_length) == (20, None)
    assert rw.walk_tv == walk_law(star_lg.graph, 20).tv > 0.2
    bias, var1 = exact_error(star_lg, "RW", respondent_law(
        star_lg.graph, "RW", walk_law(star_lg.graph, 20)))
    assert (rw.exact_bias, rw.exact_var) == (bias, var1 / 2)
    # not the friend law
    assert bias != exact_error(star_lg, "RW", star_lg.graph.degrees)[0]


# exact_bias, exact_var and exact_mse of a sweep as its CSV writes them:
# each kind's moments under its node law, divided by the weights' sum (RW:
# the law of the walk that ran).  The RW and FN values lie within 9e-17 of
# the same moments in exact rational arithmetic; their last bits depend on
# the summation order of the adjacency product.  Both walks stop at the cap
# (60 and 30 steps): the first graph mixes slowly (lambda2 0.90), and the
# second, an 8-cycle with a chord, is bipartite.
_EXACT_COLUMNS = (
    "IP,1,0.0,0.244375,0.244375",
    "IP,3,0.0,0.08145833333333334,0.08145833333333334",
    "IP,7,0.0,0.03491071428571429,0.03491071428571429",
    "UN,1,-0.03782738095238092,0.09471346991921767,0.09614438066893422",
    "UN,3,-0.03782738095238092,0.03157115663973922,0.033002067389455776",
    "UN,7,-0.03782738095238092,0.013530495702745381,0.014961406452461933",
    "RW,1,-0.0315770489984295,0.07621943120331706,0.07721654122676629",
    "RW,3,-0.0315770489984295,0.025406477067772354,0.02640358709122157",
    "RW,7,-0.0315770489984295,0.010888490171902437,0.011885600195351655",
    "FN,1,-0.009752976190476104,0.07528190964250278,0.07537703018707477",
    "FN,3,-0.009752976190476104,0.02509396988083426,0.025189090425406253",
    "FN,7,-0.009752976190476104,0.010754558520357541,0.010849679064929535",
    "IP,1,0.0,0.234375,0.234375",
    "IP,3,0.0,0.078125,0.078125",
    "IP,7,0.0,0.033482142857142856,0.033482142857142856",
    "UN,1,0.020833333333333315,0.05512152777777779,0.055555555555555566",
    "UN,3,0.020833333333333315,0.018373842592592598,0.018807870370370374",
    "UN,7,0.020833333333333315,0.00787450396825397,0.008308531746031746",
    "RW,1,0.013889205848771291,0.06172827502675299,0.06192118506586253",
    "RW,3,0.013889205848771291,0.02057609167558433,0.020769001714693872",
    "RW,7,0.013889205848771291,0.008818325003821856,0.0090112350429314",
    "FN,1,0.017361111111111105,0.06075183256172839,0.061053240740740734",
    "FN,3,0.017361111111111105,0.020250610853909463,0.02055201903292181",
    "FN,7,0.017361111111111105,0.008678833223104056,0.008980241402116403",
)


def test_sweep_exact_columns():
    g, _ = netgen.configuration_model(ConfigModelSpec(40, 2.4, k_min=2,
                                                      k_max=10, seed=3))
    chorded_cycle = build_graph([(i, (i + 1) % 8) for i in range(8)]
                                + [(0, 5)])
    cfg = ExperimentConfig(graph_source=None, label_source=None,
                           budgets=(1, 3, 7), replications=2)
    columns = []
    for lg in (netgen.assign_labels(g, LabelTarget(0.4), stream(5)),
               LabeledGraph(chorded_cycle, [1, 0, 0, 1, 1, 0, 0, 0])):
        rows = sweep_labeled(lg, cfg)
        for row in rows:
            walk = None if row.walk_length is None \
                else walk_law(lg.graph, row.walk_length)
            bias, var1 = exact_error(lg, row.estimator_kind, respondent_law(
                lg.graph, row.estimator_kind, walk))
            assert row.exact_var == var1 / row.budget
            assert row.exact_mse == bias ** 2 + row.exact_var
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        for line in buf.getvalue().splitlines()[1:]:
            fields = line.split(",")
            columns.append(",".join(fields[:2] + fields[5:]))
    assert tuple(columns) == _EXACT_COLUMNS


def test_sweep_requires_connected_for_walks(two_edges):
    lg = LabeledGraph(two_edges, [1, 0, 1, 0])
    cfg = ExperimentConfig(graph_source=None, label_source=None,
                           budgets=(1,), replications=5, master_seed=1)
    with pytest.raises(DataError, match="^sweep includes the random-walk "
                                        "estimator but the graph is "
                                        "disconnected$"):
        sweep_labeled(lg, cfg)


@pytest.mark.parametrize("kind", ["IP", "UN", "RW", "FN"])
def test_replicate_is_one_poll_of_the_cell_stream(star_chord, kind):
    # a cell's replications depend only on (master_seed, kind, budget):
    # a repeated call gives the same values, which are one poll of the
    # cell's own stream, and another master seed gives other values
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    values = replicate(lg, kind, budget=3, replications=101, master_seed=42)
    assert np.array_equal(values, replicate(lg, kind, 3, 101, 42))
    assert np.array_equal(values, poll_values(
        kind, lg, 3, stream(42, estimator_code(kind), 3), 101))
    assert not np.array_equal(values, replicate(lg, kind, 3, 101, 43))


@pytest.mark.parametrize("replications", [-1, 2.5, range(0, 5)])
def test_replicate_rejects_bad_replication_counts(star_chord, monkeypatch,
                                                  replications):
    # a count that is negative or not an integer is a data error, raised
    # before any replication is drawn
    class NoDraws:
        def random(self, *args):
            raise AssertionError("drew despite a bad replication count")

    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    monkeypatch.setattr(harness, "stream", lambda *key: NoDraws())
    with pytest.raises(DataError,
                       match=rf"^reps must be a count >= 0, got "
                             rf"{re.escape(repr(replications))}$"):
        replicate(lg, "IP", budget=3, replications=replications,
                  master_seed=42)


@pytest.mark.parametrize("batch_reps", [None, 1, 3, 0.5])
@pytest.mark.parametrize("kind,length", [
    ("IP", None), ("UN", None), ("FN", None), ("RW", 6), ("RW", None),
])
def test_replicate_splits_into_ranges(star_chord, monkeypatch, kind, length,
                                      batch_reps):
    # replications [0, reps) of a cell join from polls of arbitrary
    # sub-ranges of the cell stream, each advanced past the replications
    # before it, wherever the batches split (cuts on both sides of a
    # 3-replication batch boundary), also when one replication exceeds a
    # batch
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    budget, reps, seed = 4, 10, 31
    respondents = None if length is None else LawSampler(
        respondent_law(lg.graph, kind, walk_law(lg.graph, length)))
    if batch_reps is not None:
        monkeypatch.setattr(estimators, "_BATCH_DRAWS",
                            int(batch_reps * budget))
    cell = (seed, estimator_code(kind), budget)
    values = replicate(lg, kind, budget, reps, seed, respondents)
    assert np.array_equal(values, polled_in_ranges(
        lg, kind, budget, [0, 2, 3, 4, 5, 7, 10], seed, respondents))
    if batch_reps is not None:  # batching never changes a value
        monkeypatch.undo()
        assert np.array_equal(values, poll_values(
            kind, lg, budget, stream(*cell), reps, respondents=respondents))


def test_empirical_variance_never_negative():
    # identical replications: emp_mse - emp_bias**2 cancels to -1.4e-17
    values = np.full(48, 0.9127555772777217)
    emp_bias, emp_var, emp_mse = _empirical_moments(values,
                                                    0.6066357757671799)
    assert emp_var == 0.0
    assert emp_mse == pytest.approx(emp_bias ** 2, rel=1e-15)


def test_sweep_csv_bytes(star_lg):
    cfg = ExperimentConfig(graph_source=None, label_source=None,
                           budgets=(1, 2), replications=25,
                           estimators=("IP", "FN"), master_seed=3)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_sweep_csv(sweep_labeled(star_lg, cfg), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    header = bufs[0].splitlines()[0]
    assert header == ",".join(SWEEP_CSV_HEADER)
    assert header == ("estimator,budget,emp_bias,emp_var,emp_mse,"
                      "exact_bias,exact_var,exact_mse")


def test_default_budget_grid():
    assert default_budget_grid(100) == (1,)
    assert default_budget_grid(3000) == tuple(range(1, 31))
    grid = default_budget_grid(20_000)
    assert grid[:50] == tuple(range(1, 51))
    assert grid[-1] == 200
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_materialize_generator_with_rewire_and_labels():
    cfg = ExperimentConfig(
        graph_source=ConfigModelSpec(400, 2.4, k_min=1, k_max=40, seed=2),
        label_source=LabelTarget(0.3, target=0.1),
        rewire=RewireTarget(0.1), master_seed=9)
    lg, meta = materialize(cfg)
    assert "erased_stubs" in meta
    assert lg.graph.node_count == 400
    assert set(np.unique(lg.labels)) <= {0, 1}


def test_stream_keys_never_collide(monkeypatch):
    """Every stream of a run is stream(seed, *key): generator attempts
    (attempt,), rewiring and labels one reserved key each, and each
    (estimator, budget) cell (code, budget).  No key serves two streams."""
    rewire_key, label_key = harness._REWIRE_STREAM_KEY, \
        harness._LABEL_STREAM_KEY
    assert rewire_key != label_key
    assert netgen._MAX_GENERATION_RETRIES <= min(rewire_key, label_key)
    drawn = []

    def recording(seed, *key):
        drawn.append(key)
        return stream(seed, *key)

    for name, module in list(sys.modules.items()):  # every caller's binding
        if name.startswith("nepoll.") and \
                getattr(module, "stream", None) is stream:
            monkeypatch.setattr(module, "stream", recording)
    run_sweep(ExperimentConfig(
        graph_source=ConfigModelSpec(400, 2.4, k_min=1, k_max=40, seed=9),
        label_source=LabelTarget(0.3, target=0.1), rewire=RewireTarget(0.1),
        budgets=(1, 2), replications=3, estimators=("IP", "UN", "FN"),
        master_seed=9))
    assert len(set(drawn)) == len(drawn)
    assert {(rewire_key,), (label_key,)} <= set(drawn)
    assert sum(len(key) == 2 for key in drawn) == 3 * 2


def test_config_file_round_trip(tmp_path):
    edges, labels = _star_files(tmp_path)
    path = tmp_path / "exp.cfg"
    path.write_text(
        f'graph.path = "{edges}"\n'
        "# comment line\n"
        f'labels.path = "{labels}"\n'
        "budgets = [1, 2, 5]\n"
        "replications = 33\n"
        "estimators = [IP, UN]\n"
        "walk_length = 12\n"
        "seed = 101\n")
    cfg = load_experiment_config(path)
    assert cfg.graph_source == edges
    assert cfg.label_source == labels
    assert cfg.budgets == (1, 2, 5)
    assert cfg.replications == 33
    assert cfg.estimators == ("IP", "UN")
    assert cfg.walk_length == 12
    assert cfg.master_seed == 101


def test_config_file_generator_form(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "graph.model = config\n"
        "graph.n = 500\n"
        "graph.alpha = 2.4\n"
        "graph.kmax = 50\n"
        "graph.rkk = 0.1\n"
        "labels.p = 0.3\n"
        "labels.rho = 0.1\n"
        "seed = 7\n")
    cfg = load_experiment_config(path)
    assert isinstance(cfg.graph_source, ConfigModelSpec)
    assert cfg.graph_source.seed == 7
    assert cfg.rewire == RewireTarget(target=0.1)
    assert isinstance(cfg.label_source, LabelTarget)
    assert cfg.label_source.target == 0.1
    assert cfg.budgets is None


def test_config_file_er_form(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("graph.model = er\ngraph.n = 100\ngraph.p = 0.3\n"
                    "labels.p = 0.5\n")
    cfg = load_experiment_config(path)
    assert cfg.graph_source == ErdosRenyiSpec(node_count=100,
                                              edge_probability=0.3, seed=0)


def test_config_file_errors(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("labels.p = 0.5\n")
    with pytest.raises(ValueError, match="graph.path or graph.model"):
        load_experiment_config(path)
    path.write_text("graph.model = er\ngraph.n = 10\ngraph.p = 0.1\n")
    with pytest.raises(ValueError, match="labels.path or labels.p"):
        load_experiment_config(path)
    path.write_text("not a key value line\n")
    with pytest.raises(ValueError, match="key = value"):
        load_experiment_config(path)


def test_config_comment_only_outside_quotes():
    assert parse_config_text('graph.path = "data#1.edges"\n') == {
        "graph.path": "data#1.edges"}
    assert parse_config_text(
        "a = 'x # y'  # note\nb = 3 # note\n# c = 4\n") == {
        "a": "x # y", "b": 3}


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(graph_source="x", label_source="y", replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_source="x", label_source="y", budgets=())
    with pytest.raises(ValueError):
        ExperimentConfig(graph_source="x", label_source="y",
                         estimators=("IP", "XX"))
    # a repeated cell would make run_sweep write identical rows
    with pytest.raises(DataError, match="^estimators lists 'IP' twice$"):
        ExperimentConfig(graph_source="x", label_source="y",
                         estimators=("IP", "IP"))
    with pytest.raises(DataError, match="^budgets lists 5 twice$"):
        ExperimentConfig(graph_source="x", label_source="y",
                         budgets=(2, 5, 10, 5))
    # a count is an integer in range, never a float or a bool
    for field, value, message in (
            ("budgets", (2.5,), "budget must be a count >= 1, got 2.5"),
            ("budgets", (0,), "budget must be a count >= 1, got 0"),
            ("replications", True,
             "replications must be a count >= 1, got True"),
            ("walk_length", -1, "walk_length must be a count >= 0, got -1"),
            ("walk_length", 1.5, "walk_length must be a count >= 0, got 1.5"),
            ("master_seed", -1, "seed must be a count >= 0, got -1"),
            ("master_seed", False, "seed must be a count >= 0, got False")):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(graph_source="x", label_source="y",
                             **{field: value})


# ---------------------------------------------------------------------------
# report

def test_report_star(star, star_lg):
    rep = run_report(star, star_lg.labels)
    text = rep.to_text()
    assert rep.paradox.mean_degree_uniform == 1.5
    assert rep.paradox.mean_degree_friend == 2.0
    assert rep.paradox.mean_degree_neighbor == pytest.approx(2.5)
    assert rep.assortativity == pytest.approx(-1.0)
    assert rep.degree_label_corr == pytest.approx(1.0)
    assert rep.spectrum.lambda2 == pytest.approx(1.0)
    assert rep.threshold is not None and rep.threshold.non_positive
    assert "friendship_paradox_holds: true" in text
    assert "rw_applicable: true" in text
    # the leaves are twins, which certifies lambda_n = 0
    assert ("lambda2: 1.0\nlambda_n: 0.0\nlambda_n_exact: true\n"
            "rw_applicable: true\n") in text


def test_report_triangle(k3, k3_lg):
    rep = run_report(k3, k3_lg.labels)
    assert rep.spectrum.lambda2 == pytest.approx(0.5)
    assert rep.threshold.unbounded
    assert rep.assortativity is None               # regular: undefined
    assert "assortativity: undefined" in rep.to_text()
    assert "budget_threshold: inf" in rep.to_text()
    assert "lambda_n: 0.0\nlambda_n_exact: false\n" in rep.to_text()


def test_report_disconnected(two_edges):
    rep = run_report(two_edges)
    text = rep.to_text()
    assert "connected: false" in text
    assert "rw_applicable: false" in text
    assert "rw_walk" not in text
    assert "true_fraction" not in text             # no labels given


@pytest.mark.parametrize("edges,length,tv,tol", [
    # regular: the uniform start is d/M
    ([(j, (j + 1) % 6) for j in range(6)], 1, 0.0, 0.0),
    # bipartite with equal sides: the alternating part vanishes
    ([(0, 1), (1, 2), (2, 3)], 18, 0.0, WALK_TV_TOLERANCE),
    # sides of 1 and 4 nodes: the walk alternates and walks its cap
    ([(0, j) for j in range(1, 5)], 30, 0.3, 1e-12),
])
def test_report_names_the_certified_walk(edges, length, tv, tol):
    rows = dict(run_report(build_graph(edges)).rows())
    assert rows["rw_walk_length"] == str(length)
    assert float(rows["rw_walk_tv"]) == pytest.approx(tv, abs=tol)
