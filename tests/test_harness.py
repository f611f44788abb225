import io
import math

import numpy as np
import pytest

from nepoll import (ConfigModelSpec, DisconnectedGraphError, ErdosRenyiSpec,
                    ExperimentConfig, LabelTarget, LabeledGraph, PollConfig,
                    RewireTarget, SWEEP_CSV_HEADER, brute_force_estimator_law,
                    default_budget_grid, fn_nep, intent_poll,
                    load_experiment_config, materialize, naive_nep,
                    replicate, run_report, run_sweep, rw_nep, sweep_labeled,
                    write_sweep_csv)
from nepoll import estimators
from nepoll.estimators import ESTIMATOR_CODES
from nepoll.harness import _empirical_moments

SINGLE_ESTIMATORS = {"IP": intent_poll, "UN": naive_nep, "RW": rw_nep,
                     "FN": fn_nep}


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


@pytest.mark.parametrize("kind,exact_friend", [
    ("FN", False),
    ("RW", True),
])
def test_replications_converge_to_closed_form(star_lg, kind, exact_friend):
    # empirical moments approach the closed-form ones at the 1/sqrt(reps)
    # rate; checked at 4 sigma
    reps = 100_000
    truth = star_lg.true_fraction
    law = "RW-stationary" if kind == "RW" else kind
    mean, var = brute_force_estimator_law(star_lg, law)
    values = replicate(star_lg, kind, budget=1, replications=reps,
                       master_seed=88, exact_friend_mode=exact_friend)
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


def test_sweep_rw_exact_blank_on_bipartite(star_lg):
    cfg = ExperimentConfig(graph_source=None, label_source=None,
                           budgets=(2,), replications=10,
                           estimators=("RW", "UN"), master_seed=1)
    with pytest.warns(Warning):
        rows = sweep_labeled(star_lg, cfg)
    by_kind = {r.estimator_kind: r for r in rows}
    assert by_kind["RW"].exact_bias is None       # no stationary law
    assert by_kind["UN"].exact_bias is not None


def test_sweep_requires_connected_for_walks(two_edges):
    lg = LabeledGraph(two_edges, [1, 0, 1, 0])
    cfg = ExperimentConfig(graph_source=None, label_source=None,
                           budgets=(1,), replications=5, master_seed=1)
    with pytest.raises(DisconnectedGraphError):
        sweep_labeled(lg, cfg)


@pytest.mark.parametrize("kind", ["IP", "UN", "RW", "FN"])
def test_replicate_deterministic_across_workers(star_chord, kind):
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    seq = replicate(lg, kind, budget=3, replications=101,
                    master_seed=42, workers=1)
    par = replicate(lg, kind, budget=3, replications=101,
                    master_seed=42, workers=2)
    assert np.array_equal(seq, par)


@pytest.mark.parametrize("batch_reps", [None, 1, 3])
@pytest.mark.parametrize("kind,exact_friend", [
    ("IP", False), ("UN", False), ("RW", False), ("FN", False), ("RW", True),
])
def test_replicate_matches_single_estimator(star_chord, monkeypatch, kind,
                                            exact_friend, batch_reps):
    # replication r of a batched cell is bit-equal to the single estimator
    # run on the replication's own stream, wherever the batches split
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    budget, length, reps, seed = 4, 6, 8, 31
    walks = kind == "RW" and not exact_friend
    if batch_reps is not None:
        draws = budget * (length if walks else 1)
        monkeypatch.setattr(estimators, "_BATCH_DRAWS", batch_reps * draws)
    values = replicate(lg, kind, budget, reps, seed, length,
                       exact_friend_mode=exact_friend)
    options = {"exact_friend_mode": True} if exact_friend else {}
    for r in range(reps):
        cfg = PollConfig(budget, length, seed=np.random.SeedSequence(
            seed, spawn_key=(ESTIMATOR_CODES[kind], budget, r)))
        assert values[r] == SINGLE_ESTIMATORS[kind](lg, cfg, **options).value


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


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(graph_source="x", label_source="y", replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph_source="x", label_source="y", budgets=())
    with pytest.raises(ValueError):
        ExperimentConfig(graph_source="x", label_source="y",
                         estimators=("IP", "XX"))


# ---------------------------------------------------------------------------
# report

def test_report_star(star, star_lg):
    rep = run_report(star, star_lg.labels)
    text = rep.to_text()
    assert rep.mean_degree_uniform == 1.5
    assert rep.mean_degree_friend == 2.0
    assert rep.mean_degree_neighbor == pytest.approx(2.5)
    assert rep.assortativity == pytest.approx(-1.0)
    assert rep.degree_label_corr == pytest.approx(1.0)
    assert rep.lambda2 == pytest.approx(1.0)
    assert rep.threshold is not None and rep.threshold.non_positive
    assert "friendship_paradox_holds: true" in text
    assert "rw_applicable: true" in text
    assert "rw_stationary_exact: false" in text   # bipartite


def test_report_triangle(k3, k3_lg):
    rep = run_report(k3, k3_lg.labels)
    assert rep.lambda2 == pytest.approx(0.5)
    assert rep.threshold.unbounded
    assert rep.assortativity is None               # regular: undefined
    assert "assortativity: undefined" in rep.to_text()
    assert "budget_threshold: inf" in rep.to_text()


def test_report_disconnected(two_edges):
    rep = run_report(two_edges)
    text = rep.to_text()
    assert "connected: false" in text
    assert "rw_applicable: false" in text
    assert "rw_stationary_exact" not in text
    assert "true_fraction" not in text             # no labels given
