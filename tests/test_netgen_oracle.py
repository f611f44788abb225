"""The chunk-synchronous swap processes against the sequential oracle.

``nepoll.netgen`` decides each chunk of proposals in three steps (earliest
claims in bulk, then the sequential rule from the first accept that fails
the float test).  With one proposal per chunk that is the one-at-a-time
process of ``_reference``: equal edges and labels, equal achieved values
and proposal counts when the target is out of reach.  With larger chunks
the process is its own, and the tests check what every chunk size must
keep: a simple graph with every node's degree, the label count, and a
target either reached or reported with a best effort whose achieved value
networkx or numpy recomputes.
"""

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

import _reference
from nepoll import (ConfigModelSpec, DataError, LabelTarget, RewireTarget,
                    TargetUnreachableError, assign_labels, configuration_model,
                    netgen, rewire_to_assortativity, stream)


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
    got = _outcome(fn, g, target, stream(seed))
    want = _outcome(ref, g, target, stream(seed))
    assert got == want
    return got


def _rewire_holds(g, target, seed):
    """Run the rewiring and check what every chunk size keeps."""
    try:
        out = rewire_to_assortativity(g, target, stream(seed))
        achieved = None
    except TargetUnreachableError as exc:
        out, achieved = exc.result, exc.achieved
    edges = out.edges
    assert (edges[:, 0] < edges[:, 1]).all()
    assert len({tuple(e) for e in edges.tolist()}) == len(edges)
    assert np.array_equal(out.degrees, g.degrees)
    assert np.array_equal(out.original_ids, g.original_ids)
    referee = nx.degree_assortativity_coefficient(nx.Graph(edges.tolist()))
    if achieved is None:
        assert abs(referee - target.target) <= target.tolerance + 1e-9
    else:
        assert abs(achieved - referee) <= 1e-9
    return achieved


def _labels_hold(g, target, seed):
    """Run the label swaps and check what every chunk size keeps."""
    try:
        out = assign_labels(g, target, stream(seed))
        achieved = None
    except TargetUnreachableError as exc:
        out, achieved = exc.result, exc.achieved
    iid = assign_labels(g, LabelTarget(target.base_probability),
                        stream(seed))
    assert out.graph is g
    assert set(out.labels.tolist()) <= {0, 1}
    assert out.labels.sum() == iid.labels.sum()
    referee = np.corrcoef(g.degrees, out.labels)[0, 1]
    if achieved is None:
        assert abs(referee - target.target) <= target.tolerance + 1e-9
    else:
        assert abs(achieved - referee) <= 1e-9
    return achieved


@pytest.fixture
def chunk_one(monkeypatch):
    monkeypatch.setattr(netgen, "_PROPOSAL_CHUNK", 1)


@pytest.fixture(scope="module")
def powerlaw_graph():
    g, _ = configuration_model(
        ConfigModelSpec(node_count=1000, power_law_exponent=2.4,
                        k_min=1, k_max=60, seed=11))
    return g


REWIRE_CASES = [
    RewireTarget(0.15), RewireTarget(-0.15), RewireTarget(0.1),
    # band far narrower than one swap: the process crosses the goal
    RewireTarget(0.1, tolerance=1e-6, max_iterations=30_000),
    RewireTarget(-0.05, tolerance=1e-7, max_iterations=30_000),
    # a budget that ends inside a chunk
    RewireTarget(0.6, max_iterations=8192 * 2 + 1234),
]
LABEL_CASES = [
    LabelTarget(0.3, target=0.1), LabelTarget(0.3, target=-0.1),
    LabelTarget(0.5, target=0.05, tolerance=1e-7, max_iterations=30_000),
    LabelTarget(0.3, target=0.99, max_iterations=8192 * 3 + 77),
]


@pytest.mark.parametrize("target", REWIRE_CASES)
@pytest.mark.parametrize("seed", [3, 5])
def test_rewire_matches_sequential(powerlaw_graph, chunk_one, target, seed):
    _same(rewire_to_assortativity, _reference.rewire_to_assortativity,
          powerlaw_graph, target, seed)


def test_rewire_unreachable_matches_sequential(powerlaw_graph, chunk_one):
    kind, message, achieved, _ = _same(
        rewire_to_assortativity, _reference.rewire_to_assortativity,
        powerlaw_graph, RewireTarget(0.99, max_iterations=40_000), 5)
    assert kind == "unreachable"
    assert "after 40000 proposals" in message


def test_rewire_stall_exit_matches_sequential(powerlaw_graph, chunk_one,
                                              monkeypatch):
    monkeypatch.setattr(netgen, "_STALL_LIMIT", 3000)
    kind, message, _, _ = _same(
        rewire_to_assortativity, _reference.rewire_to_assortativity,
        powerlaw_graph, RewireTarget(0.6), 4)
    assert kind == "unreachable"
    assert int(message.split("after ")[1].split()[0]) < 2_000_000


@pytest.mark.parametrize("target", LABEL_CASES)
@pytest.mark.parametrize("seed", [9, 10])
def test_assign_labels_matches_sequential(powerlaw_graph, chunk_one, target,
                                          seed):
    _same(assign_labels, _reference.assign_labels, powerlaw_graph, target,
          seed)


def test_assign_labels_stall_exit_matches_sequential(powerlaw_graph,
                                                     chunk_one, monkeypatch):
    monkeypatch.setattr(netgen, "_STALL_LIMIT", 3000)
    kind, _, _, _ = _same(assign_labels, _reference.assign_labels,
                          powerlaw_graph, LabelTarget(0.3, target=0.99), 10)
    assert kind == "unreachable"


@pytest.mark.parametrize("fn, ref, target", [
    (rewire_to_assortativity, _reference.rewire_to_assortativity,
     RewireTarget(0.6, max_iterations=17618)),
    (assign_labels, _reference.assign_labels,
     LabelTarget(0.3, target=0.6, max_iterations=3000)),
])
@pytest.mark.parametrize("seed", [3, 5])
def test_default_chunk_reaches_as_far_as_sequential(powerlaw_graph, fn, ref,
                                                    target, seed):
    # a chunk keeps at most one accept per slot of its smallest claim pool
    # (m // 2 = 439 edge pairs, ~300 1-labeled nodes); an 8192-proposal chunk
    # spent most of these budgets on proposals rejected only for a claim
    got = _outcome(fn, powerlaw_graph, target, stream(seed))
    want = _outcome(ref, powerlaw_graph, target, stream(seed))
    assert got[0] == want[0] == "unreachable"
    assert abs(got[2] - want[2]) <= 0.02


@pytest.mark.parametrize("target", REWIRE_CASES)
@pytest.mark.parametrize("seed", [3, 5])
def test_rewire_keeps_properties_at_default_chunk(powerlaw_graph, target,
                                                  seed):
    _rewire_holds(powerlaw_graph, target, seed)


@pytest.mark.parametrize("target", LABEL_CASES)
@pytest.mark.parametrize("seed", [9, 10])
def test_assign_labels_keeps_properties_at_default_chunk(powerlaw_graph,
                                                         target, seed):
    _labels_hold(powerlaw_graph, target, seed)


def test_unreachable_targets_report_best_effort(powerlaw_graph):
    achieved = _rewire_holds(powerlaw_graph,
                             RewireTarget(0.99, max_iterations=40_000), 5)
    assert achieved is not None and achieved < 0.99
    achieved = _labels_hold(powerlaw_graph,
                            LabelTarget(0.3, target=0.99,
                                        max_iterations=50_000), 10)
    assert achieved is not None and achieved < 0.99


@st.composite
def small_cases(draw):
    spec = ConfigModelSpec(
        node_count=draw(st.integers(8, 300)),
        power_law_exponent=draw(st.sampled_from([2.1, 2.5, 3.0])),
        k_min=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10**6)))
    goal = draw(st.floats(-0.6, 0.6))
    tol = draw(st.sampled_from([1e-9, 1e-4, 0.01, 0.05]))
    budget = draw(st.integers(1, 4000))
    return spec, goal, tol, budget, draw(st.integers(0, 10**6))


def _small_graph(spec):
    try:
        return configuration_model(spec)[0]
    except DataError:
        return None


@settings(max_examples=60, deadline=None)
@given(small_cases())
def test_rewire_matches_sequential_on_small_graphs(case):
    spec, goal, tol, budget, seed = case
    g = _small_graph(spec)
    if g is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_PROPOSAL_CHUNK", 1)
        mp.setattr(netgen, "_STALL_LIMIT", 1500)
        _same(rewire_to_assortativity, _reference.rewire_to_assortativity,
              g, RewireTarget(goal, tol, budget), seed)


@settings(max_examples=60, deadline=None)
@given(small_cases(), st.floats(0.05, 0.95))
def test_assign_labels_matches_sequential_on_small_graphs(case, p):
    spec, goal, tol, budget, seed = case
    g = _small_graph(spec)
    if g is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_PROPOSAL_CHUNK", 1)
        mp.setattr(netgen, "_STALL_LIMIT", 1500)
        _same(assign_labels, _reference.assign_labels, g,
              LabelTarget(p, goal, tol, budget), seed)


CHUNKS = st.sampled_from([2, 3, 7, 32, 100, 1000, 8192])


@settings(max_examples=60, deadline=None)
@given(small_cases(), CHUNKS)
def test_rewire_keeps_properties_on_small_graphs(case, chunk):
    spec, goal, tol, budget, seed = case
    g = _small_graph(spec)
    if g is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_PROPOSAL_CHUNK", chunk)
        mp.setattr(netgen, "_STALL_LIMIT", 1500)
        try:
            _rewire_holds(g, RewireTarget(goal, tol, budget), seed)
        except DataError:  # fewer than two edges, or a regular graph
            pass


@settings(max_examples=60, deadline=None)
@given(small_cases(), CHUNKS, st.floats(0.05, 0.95))
def test_assign_labels_keeps_properties_on_small_graphs(case, chunk, p):
    spec, goal, tol, budget, seed = case
    g = _small_graph(spec)
    if g is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_PROPOSAL_CHUNK", chunk)
        mp.setattr(netgen, "_STALL_LIMIT", 1500)
        try:
            _labels_hold(g, LabelTarget(p, goal, tol, budget), seed)
        except DataError:  # a regular graph, or all labels equal
            pass


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda rows: st.lists(
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    min_size=rows, max_size=rows)))
def test_first_claims_keeps_earliest_disjoint_rows(rows):
    claims = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    kept = netgen._first_claims(claims)
    first = {}
    for r, row in enumerate(rows):
        for value in row:
            first.setdefault(value, r)
    for r, row in enumerate(rows):
        assert kept[r] == all(first[value] == r for value in row)
    held = [set(row) for row, keep in zip(rows, kept) if keep]
    assert sum(map(len, held)) == len(set().union(*held))


@pytest.mark.parametrize("seed", range(8))
def test_tails_on_tiny_graphs_keep_properties(seed):
    # far fewer edges than a chunk has proposals, and a band no swap can
    # hit: the in-order tail moves the same edges again and again
    g, _ = configuration_model(ConfigModelSpec(10, 2.1, k_min=2, seed=seed))
    for goal in (-0.3, 0.3):
        _rewire_holds(g, RewireTarget(goal, 1e-9, 20_000), seed)
        _labels_hold(g, LabelTarget(0.5, goal, 1e-9, 20_000), seed)


def test_goal_crossing_hands_the_chunk_to_the_sequential_rule():
    # corr(s) = s / 10 from s = 6 toward 0.84: the first swap (+3) crosses
    # the goal; the second (-1) points away from it at the chunk start, but
    # after the crossing the sequential rule accepts it
    chain = netgen._LabelSwaps(np.array([3, 5, 2, 4]), np.array([0, 0, 1, 1]),
                               lambda s: s / 10,
                               LabelTarget(0.5, 0.84, tolerance=0.01))
    chain.decide(np.array([[0.75, 0.0], [0.0, 0.75]]))
    assert chain.s == 8
    assert chain.labels().tolist() == [1, 1, 0, 0]
