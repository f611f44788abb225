import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nepoll
from nepoll import (ConfigModelSpec, ExperimentConfig, LabelTarget,
                    LawSampler, RewireTarget, materialize, replicate,
                    respondent_law, walk_law, write_edge_list, write_labels)
from nepoll import config, harness
from nepoll.cli import main

from _reference import polled_in_ranges


@pytest.fixture
def star_files(tmp_path):
    edges = tmp_path / "star.edges"
    labels = tmp_path / "star.labels"
    edges.write_text("0 1\n0 2\n0 3\n")
    labels.write_text("0 1\n1 0\n2 0\n3 0\n")
    return edges, labels


def test_report_command(star_files, capsys):
    edges, labels = star_files
    assert main(["report", "--graph", str(edges),
                 "--labels", str(labels)]) == 0
    out = capsys.readouterr().out
    assert "mean_degree_friend: 2.0" in out
    assert "mean_degree_neighbor: 2.5" in out
    assert "assortativity: -1.0" in out
    assert "degree_label_corr: " in out
    assert "budget_threshold: non-positive (-5.0" in out


def test_report_csv_output(star_files, tmp_path, capsys):
    edges, labels = star_files
    out_csv = tmp_path / "rep.csv"
    assert main(["report", "--graph", str(edges), "--labels", str(labels),
                 "--csv", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("nodes,4") for line in lines)
    text_lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [line.replace(": ", ",", 1) for line in text_lines]


# the check lines of the walk that runs and of the paper's bounds
NEW_CHECK_LINES = ("closed_form_matches_enumeration_RW-walk",
                   "walk_bias_identity", "un_variance_within_bound",
                   "rw_variance_within_bound", "fn_bias_within_bound")


def test_check_command(star_files, capsys):
    edges, labels = star_files
    assert main(["check", "--graph", str(edges),
                 "--labels", str(labels)]) == 0
    out = capsys.readouterr().out
    assert "ok friendship_paradox" in out
    assert "ok closed_form_matches_enumeration_IP" in out
    assert "ok closed_form_matches_enumeration_UN" in out
    assert "ok top_singular_value_is_one" in out
    assert "ok lambda2_below_one_iff_connected_nonbipartite" in out
    for line in NEW_CHECK_LINES:
        assert f"\nok {line} (" in out
    assert "FAIL" not in out


def test_check_fails_on_wrong_closed_form(star_files, monkeypatch, capsys):
    exact_error = harness.exact_error

    def wrong_un(lg, kind, law):
        bias, var1 = exact_error(lg, kind, law)
        return (bias + 0.1 if kind == "UN" else bias), var1

    monkeypatch.setattr(harness, "exact_error", wrong_un)
    edges, labels = star_files
    assert main(["check", "--graph", str(edges),
                 "--labels", str(labels)]) == 1
    out = capsys.readouterr().out
    assert "FAIL closed_form_matches_enumeration_UN (deviation 1.0e-01)\n" \
        in out
    assert out.count("FAIL") == 1


def test_check_fails_on_broken_walk_and_bounds(star_files, monkeypatch,
                                               capsys):
    exact_error = harness.exact_error

    def wrong_walk(lg, kind, law):
        bias, var1 = exact_error(lg, kind, law)
        # RW's law of a walk, not the degrees d/M
        walk = kind == "RW" and not np.array_equal(law, lg.graph.degrees)
        return (bias + 0.1 if walk else bias), var1

    monkeypatch.setattr(harness, "exact_error", wrong_walk)
    monkeypatch.setattr(harness, "error_bounds",
                        lambda *args: nepoll.ErrorBounds(-1.0, -1.0, -1.0))
    monkeypatch.setattr(harness, "mean_label_friend", lambda lg: 1.0)
    edges, labels = star_files
    assert main(["check", "--graph", str(edges),
                 "--labels", str(labels)]) == 1
    failed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL ")]
    assert sorted(failed) == sorted(NEW_CHECK_LINES)


def test_generate_and_sweep_round_trip(tmp_path, capsys):
    prefix = tmp_path / "gen"
    assert main(["generate", "--model", "config", "--n", "300",
                 "--alpha", "2.4", "--kmax", "30", "--rkk", "0.1",
                 "--label-p", "0.3", "--rho", "0.1",
                 "--seed", "7", "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "achieved_rkk" in out and "achieved_rho" in out
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f'graph.path = "{prefix}.edges"\n'
        f'labels.path = "{prefix}.labels"\n'
        "budgets = [1, 3]\n"
        "replications = 60\n"
        "estimators = [IP, UN, FN]\n"
        "seed = 11\n")
    out_csv = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(out_csv)]) == 0
    assert capsys.readouterr().out == f"wrote 6 rows to {out_csv}\n"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ("estimator,budget,emp_bias,emp_var,emp_mse,"
                        "exact_bias,exact_var,exact_mse")
    assert len(lines) == 1 + 6


def test_sweep_replays_and_joins_from_ranges(star_files, tmp_path, capsys):
    # the star plus a chord is not bipartite; RW walks the default length
    edges, labels = star_files
    edges.write_text("0 1\n0 2\n0 3\n1 2\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f'graph.path = "{edges}"\n'
        f'labels.path = "{labels}"\n'
        "budgets = [1, 2]\n"
        "replications = 80\n"
        "estimators = [IP, UN, RW, FN]\n"
        "seed = 5\n")
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    # the benchmark's command line passes --workers 1
    assert main(["sweep", "--config", str(cfg), "--out", str(one),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    # the walk that ran, on stdout: the cap of 20 steps, 2.9e-4 from d/M
    line = "rw_walk_length: 20 (tv 2.9e-04)\n"
    assert capsys.readouterr().out == (
        f"{line}wrote 8 rows to {one}\n{line}wrote 8 rows to {two}\n")
    # each cell's replications join from polls of sub-ranges
    lg, _ = materialize(config.load_experiment_config(cfg))
    walk = walk_law(lg.graph)
    for kind in ("IP", "UN", "RW", "FN"):
        respondents = LawSampler(respondent_law(lg.graph, kind, walk))
        for budget in (1, 2):
            assert np.array_equal(
                replicate(lg, kind, budget, 80, 5, respondents),
                polled_in_ranges(lg, kind, budget, [0, 1, 33, 80], 5,
                                 respondents))


@pytest.mark.parametrize("workers", ["0", "2"])
def test_sweep_accepts_only_one_worker(star_files, tmp_path, monkeypatch,
                                       capsys, workers):
    # the sweep runs in one process: any other count is a usage error,
    # raised before the graph is built
    def no_materialize(cfg):
        raise AssertionError("materialized despite a bad worker count")

    monkeypatch.setattr(harness, "materialize", no_materialize)
    edges, labels = star_files
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f'graph.path = "{edges}"\nlabels.path = "{labels}"\n'
                   "budgets = [1]\nreplications = 5\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--workers", workers]) == 2
    assert "argument --workers: invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_generate_matches_materialize(tmp_path, capsys):
    """``nepoll generate`` draws rewiring and labels from the same
    streams as a sweep config with the same seed."""
    prefix = tmp_path / "gen"
    assert main(["generate", "--model", "config", "--n", "300",
                 "--alpha", "2.4", "--kmax", "30", "--rkk", "0.1",
                 "--label-p", "0.3", "--rho", "0.1",
                 "--seed", "7", "--out", str(prefix)]) == 0
    lg, _ = materialize(ExperimentConfig(
        graph_source=ConfigModelSpec(300, 2.4, k_max=30, seed=7),
        label_source=LabelTarget(0.3, target=0.1),
        rewire=RewireTarget(0.1), master_seed=7))
    write_edge_list(lg.graph, tmp_path / "cfg.edges")
    write_labels(lg, tmp_path / "cfg.labels")
    for suffix in ("edges", "labels"):
        assert (tmp_path / f"gen.{suffix}").read_bytes() \
            == (tmp_path / f"cfg.{suffix}").read_bytes()


def test_generate_er_model(tmp_path, capsys):
    prefix = tmp_path / "er"
    assert main(["generate", "--model", "er", "--n", "80", "--p", "0.2",
                 "--seed", "3", "--out", str(prefix)]) == 0
    assert (tmp_path / "er.edges").exists()
    assert (tmp_path / "er.labels").exists()


def test_data_error_exit_code(capsys):
    assert main(["report", "--graph", "/does/not/exist.edges"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError:")


def test_programming_error_is_not_a_data_error(star_files, monkeypatch):
    def index_bug(lg):
        raise ValueError("index bug")

    monkeypatch.setattr(harness, "network_stats", index_bug)
    with pytest.raises(ValueError, match="index bug"):
        main(["report", "--graph", str(star_files[0])])


def test_cli_import_loads_no_scipy_or_networkx(star_files):
    src = Path(nepoll.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import nepoll.cli, sys; "
            "assert not {'scipy', 'networkx'} & set(sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    # the report path, spectrum included, stays numpy-only
    edges, labels = star_files
    code = ("import nepoll.cli, sys; "
            f"assert nepoll.cli.main(['report', '--graph', {str(edges)!r}, "
            f"'--labels', {str(labels)!r}]) == 0; "
            "assert not {'scipy', 'networkx'} & set(sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("text,message", [
    ("graph.model = config\ngraph.n = 100\nlabels.p = 0.3\n",
     "config needs graph.alpha"),
    ("graph.model = er\ngraph.n = 100\nlabels.p = 0.3\n",
     "config needs graph.p"),
    ("graph.model = er\ngraph.p = 0.1\nlabels.p = 0.3\n",
     "config needs graph.n"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "budgets = 5\n", "budgets must be a list or default, got 5"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "estimators = 5\n", "estimators must be a list, got 5"),
    ("graph.model = er\ngraph.n = 100.9\ngraph.p = 0.5\nlabels.p = 0.3\n",
     "graph.n must be an integer, got 100.9"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "budgets = [1.9]\n", "budget must be a count >= 1, got 1.9"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "replications = 2.7\n", "replications must be a count >= 1, got 2.7"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "seed = 1.5\n", "seed must be a count >= 0, got 1.5"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "replications = true\n", "replications must be a count >= 1, got True"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "walk_length = -1\n", "walk_length must be a count >= 0, got -1"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "seed = -1\n", "seed must be a count >= 0, got -1"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = [1]\nlabels.p = 0.3\n",
     "graph.p must be a number, got [1]"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = \"x\"\n",
     "labels.p must be a number, got 'x'"),
    ("graph.model = config\ngraph.n = 9\ngraph.alpha = true\n"
     "labels.p = 0.3\n", "graph.alpha must be a number, got True"),
    ("graph.model = config\ngraph.n = 9\ngraph.alpha = 2.4\n"
     "graph.kmx = 40\nlabels.p = 0.3\n", "unknown key graph.kmx"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "seed = 1\nseed = 2\n", "line 6: repeated key seed"),
    ("graph.path = \"g.edges\"\ngraph.model = er\ngraph.n = 9\n"
     "graph.p = 0.5\nlabels.p = 0.3\n",
     "graph.path and graph.model both given; set one source"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\n"
     "labels.path = \"g.labels\"\nlabels.p = 0.3\n",
     "labels.path and labels.p both given; set one source"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "estimators = [IP, UN, IP]\n", "estimators lists 'IP' twice"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "budgets = [1, 5, 1]\n", "budgets lists 1 twice"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\ngraph.alpha = 2.4\n"
     "labels.p = 0.3\n", "graph.alpha is not read with graph.model = er"),
    ("graph.model = config\ngraph.n = 9\ngraph.alpha = 2.4\n"
     "graph.p = 0.5\nlabels.p = 0.3\n",
     "graph.p is not read with graph.model = config"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\ngraph.rkk_tol = 0.01\n"
     "labels.p = 0.3\n", "graph.rkk_tol is not read without graph.rkk"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\nlabels.p = 0.3\n"
     "labels.tol = 0.01\n", "labels.tol is not read without labels.rho"),
    ("graph.path = \"g.edges\"\ngraph.n = 9\nlabels.p = 0.3\n",
     "graph.n is not read with graph.path"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\n"
     "labels.path = \"g.labels\"\nlabels.rho = 0.1\n",
     "labels.rho is not read with labels.path"),
    ("graph.model = er\ngraph.n = 9\ngraph.p = 0.5\ngraph.rkk = nan\n"
     "labels.p = 0.3\n", "target must lie in [-1, 1], got nan"),
    # a path key holds a string: unquoted, these parse as numbers or a bool
    ("graph.path = 0123\nlabels.p = 0.3\n",
     "graph.path must be a path, got 123"),
    ("graph.path = 1e3\nlabels.p = 0.3\n",
     "graph.path must be a path, got 1000.0"),
    ("graph.path = \"g.edges\"\nlabels.path = true\n",
     "labels.path must be a path, got True"),
])
def test_bad_config_names_file(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: DataError: {cfg}: {message}\n"


@pytest.mark.parametrize("keys, message", [
    ("graph.model = config\ngraph.n = 200\ngraph.alpha = 2.4\n"
     "graph.rkk = -0.05\nlabels.p = 1.5\n",
     "base probability must lie strictly in (0, 1)"),
    ("graph.model = config\ngraph.n = 1\ngraph.alpha = 2.4\nlabels.p = 0.3\n",
     "need at least two nodes"),
    ("graph.model = config\ngraph.n = 200\ngraph.alpha = 1\nlabels.p = 0.3\n",
     "power-law exponent must be > 1"),
    ("graph.model = config\ngraph.n = 200\ngraph.alpha = 2.4\n"
     "graph.kmin = 9\ngraph.kmax = 4\nlabels.p = 0.3\n",
     "k_max 4 < k_min 9"),
    ("graph.model = er\ngraph.n = 200\ngraph.p = 0\nlabels.p = 0.3\n",
     "edge probability must be in (0, 1]"),
])
def test_range_checks_fail_before_any_graph_is_built(tmp_path, monkeypatch,
                                                     capsys, keys, message):
    def no_graph(spec):
        raise AssertionError("built a graph from a spec out of range")

    monkeypatch.setattr(harness, "configuration_model", no_graph)
    monkeypatch.setattr(harness, "erdos_renyi", no_graph)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(keys)
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: DataError: {cfg}: {message}\n"


def test_generate_checks_ranges_before_building(tmp_path, monkeypatch,
                                                capsys):
    def no_graph(spec):
        raise AssertionError("built a graph from a spec out of range")

    monkeypatch.setattr(harness, "configuration_model", no_graph)
    assert main(["generate", "--model", "config", "--n", "200000",
                 "--alpha", "2.4", "--rkk", "-0.05", "--label-p", "1.5",
                 "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: DataError: base probability must lie strictly in (0, 1)\n")
    assert not list(tmp_path.iterdir())


def test_config_loader_rewrites_only_data_errors(tmp_path, monkeypatch):
    def bug(kv):
        raise ValueError("bug in the loader")

    monkeypatch.setattr(config, "experiment_config", bug)
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("graph.model = er\n")
    with pytest.raises(ValueError, match="^bug in the loader$") as exc:
        config.load_experiment_config(cfg)
    assert type(exc.value) is ValueError


def test_empty_edge_list_names_file(tmp_path, capsys):
    edges = tmp_path / "empty.edges"
    edges.write_text("# no edges\n")
    assert main(["report", "--graph", str(edges)]) == 1
    assert capsys.readouterr().err == (
        f"error: DataError: {edges}: a graph needs at least one edge\n")


def test_target_unreachable_exit_code(tmp_path, capsys):
    assert main(["generate", "--model", "config", "--n", "200",
                 "--alpha", "2.4", "--kmax", "20", "--rkk", "0.99",
                 "--max-iter", "30000", "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TargetUnreachable")
    assert "achieved=" in err


@pytest.mark.parametrize("flags, message", [
    (["--rkk", "nan"], "target must lie in [-1, 1], got nan"),
    (["--rkk", "3.0"], "target must lie in [-1, 1], got 3.0"),
    (["--rho", "nan"], "target must lie in [-1, 1], got nan"),
    (["--rkk", "0.1", "--rkk-tol", "nan"], "tolerance must be > 0, got nan"),
])
def test_bad_swap_target_exits_with_one_error_line(tmp_path, capsys, flags,
                                                   message):
    assert main(["generate", "--model", "config", "--n", "200",
                 "--alpha", "2.4", "--out", str(tmp_path / "x"),
                 *flags]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: DataError: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--model", "config", "--alpha", "2.4", "--p", "0.5"],
     "graph.p is not read with graph.model = config"),
    (["--model", "er", "--p", "0.05", "--alpha", "3"],
     "graph.alpha is not read with graph.model = er"),
    (["--model", "er", "--p", "0.05", "--kmin", "4"],
     "graph.kmin is not read with graph.model = er"),
    (["--model", "er", "--p", "0.05", "--kmax", "9"],
     "graph.kmax is not read with graph.model = er"),
    (["--model", "config", "--alpha", "2.4", "--rkk-tol", "0.01"],
     "graph.rkk_tol is not read without graph.rkk"),
    (["--model", "config", "--alpha", "2.4", "--rho-tol", "0.3"],
     "labels.tol is not read without labels.rho"),
    (["--model", "config", "--alpha", "2.4", "--max-iter", "5"],
     "graph.rkk_max_iter is not read without graph.rkk"),
])
def test_generate_rejects_flags_nothing_reads(tmp_path, capsys, flags,
                                              message):
    assert main(["generate", "--n", "200", "--out", str(tmp_path / "x"),
                 *flags]) == 1
    assert capsys.readouterr().err == f"error: DataError: {message}\n"
    assert not list(tmp_path.iterdir())


_TRIANGLE = "0 1\n1 2\n0 2\n"


@pytest.mark.parametrize("files, argv, message", [
    ({"g.edges": "1 1\n"}, ["report", "--graph", "g.edges"],
     "self-loop at node 1"),
    ({}, ["generate", "--model", "er", "--n", "50", "--p", "0.001"],
     "G(n=50, p=0.001) produced isolated nodes in 100 attempts"),
    ({}, ["generate", "--model", "config", "--n", "50", "--alpha", "2.4",
          "--kmin", "0"], "k_min must be >= 1"),
    ({}, ["generate", "--model", "config", "--n", "5", "--alpha", "2.4",
          "--kmax", "10"], "k_max 10 > n-1 = 4"),
    ({"g.edges": _TRIANGLE,
      "x.cfg": 'graph.path = "g.edges"\ngraph.rkk = 0.1\nlabels.p = 0.5\n'},
     ["sweep", "--config", "x.cfg", "--out", "out.csv"],
     "regular graph: degree-degree correlation undefined"),
    ({"g.edges": _TRIANGLE,
      "x.cfg": 'graph.path = "g.edges"\nlabels.p = 0.5\nlabels.rho = 0.2\n'},
     ["sweep", "--config", "x.cfg", "--out", "out.csv"],
     "regular graph: degree-label correlation undefined"),
    ({"g.edges": "0 1\n2 3\n",
      "x.cfg": 'graph.path = "g.edges"\nlabels.p = 0.5\n'},
     ["sweep", "--config", "x.cfg", "--out", "out.csv"],
     "sweep includes the random-walk estimator but the graph is "
     "disconnected"),
])
def test_input_the_pipeline_cannot_take_is_a_data_error(
        tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: DataError: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_usage_error_exit_code():
    assert main(["sweep"]) == 2          # missing required args
    assert main(["no-such-command"]) == 2


def test_missing_model_params(tmp_path, capsys):
    assert main(["generate", "--model", "config", "--n", "10",
                 "--out", str(tmp_path / "y")]) == 1
    assert "alpha" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
