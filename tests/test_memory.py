"""Memory budgets of the round trip that ``nepoll generate`` and a reload
make: ``materialize`` of a rewired, labeled configuration model,
``read_edge_list`` of the file written from it, and ``graph_flags`` of the
graph read.  Each phase may hold what it builds or reads and at most one
edge-sized array beside it, plus a few node arrays.  A budget is in units
of one int64 per edge (E = 8m bytes) and per node (N = 8n bytes), so it
scales with the graph: a graph takes 2E + 2N.  tracemalloc counts numpy's
array allocations, not pages, so a peak is the same on every run.

``round_trip_peaks`` also runs at the benchmark's size, n = 200k with
k_max = 1000, in CI.
"""

import tracemalloc

import pytest

from nepoll import graph_flags, materialize, read_edge_list, write_edge_list
from nepoll.cli import _build_parser
from nepoll.config import experiment_config, generate_keys

# (E, N) per phase: the generator's graph, labels and swap state; the graph
# read and the keys it is built from; the adjacency's lower half, its row
# starts, the depths and a frontier
BUDGETS = {"materialize": (3, 5), "read_edge_list": (3, 3),
           "graph_flags": (1, 6)}


def _peak(call):
    """``(result, peak)``: the most bytes ``call`` held at once."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def round_trip_peaks(n, k_max, directory):
    """``{phase: (peak, budget)}`` in bytes for the round trip of the graph
    ``generate`` makes with the benchmark's flags at ``n`` nodes."""
    cfg = experiment_config(generate_keys(_build_parser().parse_args([
        "generate", "--model", "config", "--n", str(n), "--alpha", "2.4",
        "--kmin", "2", "--kmax", str(k_max), "--rkk", "-0.05",
        "--rkk-tol", "0.005", "--rho", "0.05", "--rho-tol", "0.005",
        "--seed", "1", "--out", "unused"])))
    (lg, _), made = _peak(lambda: materialize(cfg))
    path = directory / "g.edges"
    write_edge_list(lg.graph, path)
    del lg
    g, read = _peak(lambda: read_edge_list(path))
    _, flagged = _peak(lambda: graph_flags(g))
    e, nodes = 8 * g.edge_count, 8 * g.node_count
    return {phase: (peak, a * e + b * nodes) for (phase, (a, b)), peak
            in zip(BUDGETS.items(), (made, read, flagged))}


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    # k_max ~ sqrt(<k> n), the structural cut-off the benchmark uses
    return round_trip_peaks(100_000, 700, tmp_path_factory.mktemp("memory"))


@pytest.mark.parametrize("phase", sorted(BUDGETS))
def test_round_trip_phase_within_budget(peaks, phase):
    peak, budget = peaks[phase]
    assert peak <= budget, f"{phase} peaked at {peak} bytes > {budget}"
