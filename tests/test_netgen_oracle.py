"""The chunk-screened swap processes against the sequential oracle.

``nepoll.netgen`` decides most proposals of a chunk in numpy; the oracle in
``_reference`` decides them one by one.  Both must accept the same swaps:
equal edges and labels, equal achieved values and proposal counts when the
target is out of reach.  A small patched chunk makes bulk, entangled and
in-order proposals interleave on small graphs.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import _reference
from nepoll import (ConfigModelSpec, DataError, LabelTarget, RandomStream,
                    RewireTarget, TargetUnreachableError, assign_labels,
                    configuration_model, harness, netgen,
                    rewire_to_assortativity)


def _outcome(fn, *args):
    """What a swap process produced: the graph or labels, or the error with
    its message, achieved value and best-effort result."""
    try:
        out = fn(*args)
    except TargetUnreachableError as exc:
        return ("unreachable", str(exc), exc.achieved, _arrays(exc.result))
    except DataError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", _arrays(out))


def _arrays(out):
    if hasattr(out, "labels"):
        return out.graph.edges.tolist(), out.labels.tolist()
    return out.edges.tolist()


def _same(fn, ref, g, target, seed):
    got = _outcome(fn, g, target, RandomStream(seed))
    want = _outcome(ref, g, target, RandomStream(seed))
    assert got == want
    return got


@pytest.fixture(scope="module")
def powerlaw_graph():
    g, _ = configuration_model(
        ConfigModelSpec(node_count=1000, power_law_exponent=2.4,
                        k_min=1, k_max=60, seed=11))
    return g


@pytest.mark.parametrize("target", [
    RewireTarget(0.15), RewireTarget(-0.15), RewireTarget(0.1),
    # band far narrower than one swap: the process crosses the goal
    RewireTarget(0.1, tolerance=1e-6, max_iterations=30_000),
    RewireTarget(-0.05, tolerance=1e-7, max_iterations=30_000),
    # a budget that ends inside a chunk
    RewireTarget(0.6, max_iterations=8192 * 2 + 1234),
])
@pytest.mark.parametrize("seed", [3, 5])
def test_rewire_matches_sequential(powerlaw_graph, target, seed):
    _same(rewire_to_assortativity, _reference.rewire_to_assortativity,
          powerlaw_graph, target, seed)


def test_rewire_unreachable_matches_sequential(powerlaw_graph):
    kind, message, achieved, _ = _same(
        rewire_to_assortativity, _reference.rewire_to_assortativity,
        powerlaw_graph, RewireTarget(0.99, max_iterations=40_000), 5)
    assert kind == "unreachable"
    assert "after 40000 proposals" in message


def test_rewire_stall_exit_matches_sequential(powerlaw_graph, monkeypatch):
    monkeypatch.setattr(netgen, "_STALL_LIMIT", 3000)
    kind, message, _, _ = _same(
        rewire_to_assortativity, _reference.rewire_to_assortativity,
        powerlaw_graph, RewireTarget(0.6), 4)
    assert kind == "unreachable"
    assert int(message.split("after ")[1].split()[0]) < 2_000_000


def test_rewire_without_bulk_matches_sequential(powerlaw_graph, monkeypatch):
    # sums too large for float64 integers: every proposal goes in order
    monkeypatch.setattr(netgen, "_EXACT_SUMS", 0.0)
    _same(rewire_to_assortativity, _reference.rewire_to_assortativity,
          powerlaw_graph, RewireTarget(-0.1), 6)


def test_sweep_graph_matches_sequential():
    # the benchmark's sweep-n20k graph, targets and streams at seed 1
    g, _ = configuration_model(ConfigModelSpec(20_000, 2.4, k_min=3,
                                               k_max=350, seed=1))

    def rewired(fn):
        return fn(g, RewireTarget(0.05, tolerance=0.005),
                  RandomStream(1).substream(harness._REWIRE_STREAM_KEY))

    def labels(fn, graph):
        return fn(graph, LabelTarget(0.3, target=0.1, tolerance=0.01),
                  RandomStream(1).substream(harness._LABEL_STREAM_KEY)).labels

    got = rewired(rewire_to_assortativity)
    assert np.array_equal(got.edges,
                          rewired(_reference.rewire_to_assortativity).edges)
    assert np.array_equal(labels(assign_labels, got),
                          labels(_reference.assign_labels, got))


@pytest.mark.parametrize("target", [
    LabelTarget(0.3, target=0.1), LabelTarget(0.3, target=-0.1),
    LabelTarget(0.5, target=0.05, tolerance=1e-7, max_iterations=30_000),
    LabelTarget(0.3, target=0.99, max_iterations=8192 * 3 + 77),
])
@pytest.mark.parametrize("seed", [9, 10])
def test_assign_labels_matches_sequential(powerlaw_graph, target, seed):
    _same(assign_labels, _reference.assign_labels, powerlaw_graph, target,
          seed)


def test_assign_labels_stall_exit_matches_sequential(powerlaw_graph,
                                                     monkeypatch):
    monkeypatch.setattr(netgen, "_STALL_LIMIT", 3000)
    kind, _, _, _ = _same(assign_labels, _reference.assign_labels,
                          powerlaw_graph, LabelTarget(0.3, target=0.99), 10)
    assert kind == "unreachable"


@st.composite
def small_cases(draw):
    spec = ConfigModelSpec(
        node_count=draw(st.integers(8, 300)),
        power_law_exponent=draw(st.sampled_from([2.1, 2.5, 3.0])),
        k_min=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10**6)))
    chunk = draw(st.sampled_from([1, 2, 7, 32, 100, 1000]))
    goal = draw(st.floats(-0.6, 0.6))
    tol = draw(st.sampled_from([1e-9, 1e-4, 0.01, 0.05]))
    budget = draw(st.integers(1, 4000))
    return spec, chunk, goal, tol, budget, draw(st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(small_cases())
def test_rewire_matches_sequential_on_small_graphs(case):
    spec, chunk, goal, tol, budget, seed = case
    try:
        g, _ = configuration_model(spec)
    except DataError:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_PROPOSAL_CHUNK", chunk)
        mp.setattr(netgen, "_STALL_LIMIT", 1500)
        _same(rewire_to_assortativity, _reference.rewire_to_assortativity,
              g, RewireTarget(goal, tol, budget), seed)


@settings(max_examples=60, deadline=None)
@given(small_cases(), st.floats(0.05, 0.95))
def test_assign_labels_matches_sequential_on_small_graphs(case, p):
    spec, chunk, goal, tol, budget, seed = case
    try:
        g, _ = configuration_model(spec)
    except DataError:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_PROPOSAL_CHUNK", chunk)
        mp.setattr(netgen, "_STALL_LIMIT", 1500)
        _same(assign_labels, _reference.assign_labels, g,
              LabelTarget(p, goal, tol, budget), seed)
