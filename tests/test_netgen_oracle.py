"""The chunk-synchronous swap processes against the sequential oracle.

``nepoll.netgen`` decides each chunk of proposals by one rule, repeated
from the chunk's first proposal: screen the rest of the chunk on the live
state, accept the earliest claimants in bulk up to the cut (the first accept
that fails the float test), decide the cut alone, and screen again after
it.  With one proposal per chunk that is the one-at-a-time process of
``_reference``: equal edges and labels, equal achieved values and proposal
counts when the target is out of reach.  With larger chunks the process is
its own, and the tests check what every chunk size must keep: a simple
graph with every node's degree, the label count, a run that never ends
farther from its target than it started, and a target either reached or
reported with a best effort whose achieved value networkx or numpy
recomputes.
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
    LabelTarget(0.3, target=0.0),
    LabelTarget(0.5, target=0.05, tolerance=1e-7, max_iterations=30_000),
    LabelTarget(0.3, target=0.99, max_iterations=8192 * 3 + 77),
]


@pytest.mark.parametrize("target", REWIRE_CASES)
@pytest.mark.parametrize("seed", [3, 5])
def test_rewire_matches_sequential(powerlaw_graph, chunk_one, target, seed):
    _same(rewire_to_assortativity, _reference.rewire_to_assortativity,
          powerlaw_graph, target, seed)


@pytest.mark.parametrize("target", [RewireTarget(0.15), RewireTarget(-0.15)])
def test_rewire_keys_stay_the_sorted_edge_keys(powerlaw_graph, monkeypatch,
                                               target):
    """After every bulk accept of many small chunks, the live base keys and
    the born keys are together exactly the keys of the edges: ``born``
    strictly ascending and disjoint from the live base keys, and ``keys()``
    their sorted union, without repeats."""
    applies, moved_again = [], []
    apply = netgen._EdgeSwaps.apply

    def checked(chain, *accepted):
        moved_again.append(int((~chain.alive[np.r_[accepted[:2]]]).sum()))
        apply(chain, *accepted)
        live = chain.base[chain.alive]
        assert np.array_equal(np.sort(np.r_[live, chain.born]),
                              np.sort(chain.ekey))
        assert (np.diff(chain.born) > 0).all()
        assert not np.isin(chain.born, live).any()
        assert np.array_equal(chain.keys(), np.sort(chain.ekey))
        assert (np.diff(chain.keys()) > 0).all()
        applies.append(len(accepted[0]))

    monkeypatch.setattr(netgen, "_PROPOSAL_CHUNK", 16)
    monkeypatch.setattr(netgen._EdgeSwaps, "apply", checked)
    rewire_to_assortativity(powerlaw_graph, target, stream(3))
    assert len(applies) > 10 and max(applies) > 1
    assert sum(moved_again) > 0   # born keys were taken out again


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


_WIDE = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 4), pool=st.lists(_WIDE, min_size=1, max_size=12),
       picks=st.lists(st.tuples(st.booleans(), st.integers(0, 11), _WIDE),
                      max_size=160),
       ties_reversed=st.booleans())
def test_first_claims_on_wide_values_matches_unique(width, pool, picks,
                                                    ties_reversed):
    # values across the whole int64 range, each either a fresh draw or one
    # of a few repeated ones, so claims collide; the earliest holder of a
    # value must not depend on the order the sort leaves equal values in,
    # here last position first when ties_reversed
    values = [wide if fresh else pool[at % len(pool)]
              for fresh, at, wide in picks]
    claims = np.array(values[:len(values) // width * width],
                      dtype=np.int64).reshape(-1, width)
    with pytest.MonkeyPatch.context() as mp:
        if ties_reversed:
            mp.setattr(netgen.np, "argsort", lambda a: np.lexsort(
                (-np.arange(len(a)), a)))
        kept = netgen._first_claims(claims)
    assert np.array_equal(kept, _reference.first_claims(claims))


@pytest.mark.parametrize("seed", range(8))
def test_tails_on_tiny_graphs_keep_properties(seed):
    # far fewer edges than a chunk has proposals, and a band no swap can
    # hit: every cut screens the rest of the chunk again, and the same
    # edges move again and again
    g, _ = configuration_model(ConfigModelSpec(10, 2.1, k_min=2, seed=seed))
    for goal in (-0.3, 0.3):
        _rewire_holds(g, RewireTarget(goal, 1e-9, 20_000), seed)
        _labels_hold(g, LabelTarget(0.5, goal, 1e-9, 20_000), seed)


@settings(max_examples=60, deadline=None)
@given(small_cases(), st.integers(2, 8192), st.floats(0.05, 0.95))
def test_runs_never_end_farther_from_the_target(case, chunk, p):
    # every accept strictly shrinks the distance to the target on the state
    # it meets, so no chunk size leaves a run farther off than its input
    spec, goal, tol, budget, seed = case
    g = _small_graph(spec)
    if g is None:
        return

    def assortativity(out):
        return nx.degree_assortativity_coefficient(
            nx.Graph(out.edges.tolist()))

    def label_corr(out):
        return np.corrcoef(g.degrees, out.labels)[0, 1]

    iid = assign_labels(g, LabelTarget(p), stream(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgen, "_PROPOSAL_CHUNK", chunk)
        mp.setattr(netgen, "_STALL_LIMIT", 1500)
        for fn, target, value, initial in (
                (rewire_to_assortativity, RewireTarget(goal, tol, budget),
                 assortativity, g),
                (assign_labels, LabelTarget(p, goal, tol, budget),
                 label_corr, iid)):
            try:
                out = fn(g, target, stream(seed))
            except TargetUnreachableError as exc:
                out = exc.result
            except DataError:  # under two edges, regular, or one label
                continue
            assert abs(value(out) - goal) <= abs(value(initial) - goal) + 1e-12


def test_goal_crossing_screens_the_rest_of_the_chunk_again():
    # corr(s) = s / 10 from s = 6 toward 0.84: the first swap (+3) crosses
    # the goal; the second (-1) points away from it at the chunk start, but
    # the screen after the crossing finds it local and accepts it
    chain = netgen._LabelSwaps(np.array([3, 5, 2, 4]), np.array([0, 0, 1, 1]),
                               lambda s: s / 10,
                               LabelTarget(0.5, 0.84, tolerance=0.01))
    chain.decide(np.array([[0.75, 0.0], [0.0, 0.75]]))
    assert chain.s == 8
    assert chain.labels().tolist() == [1, 1, 0, 0]


def test_a_swap_that_overshoots_claims_nothing():
    # corr(s) = s / 100 from s = 19 toward 0.155.  Proposal 0 (-2) shrinks
    # the gap; proposal 1 (-7) overshoots to 0.12 without shrinking it, so
    # it is not local; proposal 2 claims proposal 0's pool position and
    # loses it, though after proposal 0 its step (-1) would shrink the gap
    chain = netgen._LabelSwaps(np.array([1, 3, 1, 6, 8, 5]),
                               np.array([0, 0, 0, 1, 1, 1]),
                               lambda s: s / 100,
                               LabelTarget(0.5, 0.155, tolerance=0.001))
    chain.decide(np.array([[0.4, 0.7], [0.7, 0.4], [0.4, 0.0]]))
    assert chain.s == 17
    assert chain.labels().tolist() == [0, 1, 0, 1, 1, 0]
