"""The span recorder must not change what nepoll computes.

    python3 -m pytest perfbench/test_trace.py

A traced sweep writes the same CSV bytes, and a traced report prints the
same text, as the untraced runs; uninstalling puts every original function
back.  BENCHMARK.json declares exactly the metrics run.py prints.
"""

import contextlib
import io
import json

from run import END_TO_END_UNITS
from spans import LAYER_UNITS, Tracer, layer_metrics
from workloads import ROOT, use_checkout_source

nepoll = use_checkout_source()
from nepoll import cli, harness  # noqa: E402

SWEEP_CFG = """\
graph.model = config
graph.n = 600
graph.alpha = 2.4
graph.kmin = 3
graph.kmax = 40
graph.rkk = 0.05
graph.rkk_tol = 0.01
labels.p = 0.3
labels.rho = 0.1
budgets = [1, 5]
replications = 40
seed = 3
"""


def _nepoll(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue()


def test_traced_sweep_writes_identical_csv(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    _nepoll("sweep", "--config", cfg, "--out", tmp_path / "plain.csv")
    with Tracer() as tracer:
        _nepoll("sweep", "--config", cfg, "--out", tmp_path / "traced.csv")
    assert ((tmp_path / "traced.csv").read_bytes()
            == (tmp_path / "plain.csv").read_bytes())

    m = layer_metrics(tracer.spans)
    assert m["harness.replicate.calls"] == 8
    assert m["estimators.run_estimator.calls"] == 320
    assert m["sampling.random_walk_endpoints.calls"] == 80
    # 40 replications at budgets 1 and 5, walks of 10 * ceil(log2 600) steps
    assert m["sampling.walk_steps"] == 40 * (1 + 5) * 100
    assert cli.run_sweep is harness.run_sweep
    assert not hasattr(harness.replicate, "__wrapped__")


def test_traced_report_prints_identical_text(tmp_path):
    prefix = tmp_path / "g"
    _nepoll("generate", "--model", "config", "--n", 400, "--alpha", 2.4,
            "--kmin", 2, "--seed", 5, "--out", prefix)
    argv = ("report", "--graph", f"{prefix}.edges",
            "--labels", f"{prefix}.labels")
    plain = _nepoll(*argv)
    with Tracer() as tracer:
        traced = _nepoll(*argv)
    assert traced == plain
    m = layer_metrics(tracer.spans)
    assert m["analytics.spectral_summary.dense_mb"] == 8 * 400 ** 2 / 1e6
    assert m["sampling.random_walk_endpoints.calls"] == 0


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
