import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nepoll import (BipartiteWalkWarning, ConfigModelSpec, DataError,
                    DisconnectedGraphError, LabeledGraph, RewireTarget,
                    brute_force_estimator_law, configuration_model,
                    poll_values, rewire_to_assortativity, stream)

from _reference import sample_random_friends
from _strategies import labeled_graphs

BIG_BUDGET = 100_000


def _band(variance, budget=BIG_BUDGET, sigmas=4):
    return sigmas * math.sqrt(variance / budget)


def _poll(kind, lg, budget, seed, *key, **options):
    return poll_values(kind, lg, budget, stream(seed, *key), 1, **options)[0]


def _stationary_poll(lg, budget, seed, *key):
    """Walk-poll estimate with respondents drawn from the walk's
    stationary law (random friends) instead of walked to."""
    gen = stream(seed, *key)
    return lg.responses[sample_random_friends(lg.graph, gen, budget)].mean()


def test_constant_labels_give_exact_estimates(star):
    lg = LabeledGraph(star, [1, 1, 1, 1])
    for b in (1, 7, 50):
        for kind in ("IP", "UN", "FN"):
            assert _poll(kind, lg, b, b) == 1.0
        assert _stationary_poll(lg, b, b) == 1.0


def test_single_draw_law_triangle(k3_lg):
    values = poll_values("IP", k3_lg, 1, stream(0), 400)
    assert set(values) <= {0.0, 1.0}
    freq = np.mean(values)
    assert abs(freq - 1 / 3) <= _band(2 / 9, budget=400)


@pytest.mark.parametrize("law", ["IP", "UN", "FN"])
def test_large_budget_converges_to_enumerated_law(star_lg, law):
    mean, var = brute_force_estimator_law(star_lg, law)
    assert abs(_poll(law, star_lg, BIG_BUDGET, 13) - mean) <= _band(var)


def test_random_friend_poll_converges_to_stationary_law(star_lg):
    mean, var = brute_force_estimator_law(star_lg, "RW")
    assert abs(_stationary_poll(star_lg, BIG_BUDGET, 14) - mean) \
        <= _band(var)
    assert mean == 0.5 and var == 0.25


def test_walk_estimator_on_regular_graph(k3_lg):
    # triangle is regular: the endpoint law equals the uniform law at any N
    mean, var = brute_force_estimator_law(k3_lg, "RW")
    assert mean == pytest.approx(1 / 3)
    assert var == pytest.approx(1 / 18)
    est = _poll("RW", k3_lg, BIG_BUDGET, 15, walk_length=3)
    assert abs(est - mean) <= _band(var)


def test_walk_estimator_requires_connected(two_edges):
    lg = LabeledGraph(two_edges, [1, 0, 1, 0])
    with pytest.raises(DisconnectedGraphError):
        _poll("RW", lg, 2, 0)


def test_walk_estimator_warns_on_bipartite(star_lg):
    with pytest.warns(BipartiteWalkWarning):
        _poll("RW", star_lg, 2, 1, walk_length=4)


def test_lazy_walk_mixes_on_bipartite(star_lg):
    # the lazy walk has a stationary law on bipartite graphs, so no warning
    # and the long-run estimate matches the degree-weighted response mean
    import warnings as _warnings
    mean, var = brute_force_estimator_law(star_lg, "RW")
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", BipartiteWalkWarning)
        est = _poll("RW", star_lg, 20_000, 2, walk_length=80,
                    lazy_walk=True)
    assert abs(est - mean) <= _band(var, budget=20_000)


def test_fn_equals_un_in_law_on_regular_graphs(k3_lg):
    assert brute_force_estimator_law(k3_lg, "FN") == \
        brute_force_estimator_law(k3_lg, "UN")


def test_same_seed_reproduces_estimate(star_lg):
    for kind in ("IP", "UN", "FN"):
        assert _poll(kind, star_lg, 64, 99) == _poll(kind, star_lg, 64, 99)


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs(), seed=st.integers(0, 2**32), budget=st.integers(1, 30))
def test_estimates_always_in_unit_interval(lg, seed, budget):
    for kind in ("IP", "UN", "FN"):
        assert 0.0 <= _poll(kind, lg, budget, seed) <= 1.0
    assert 0.0 <= _stationary_poll(lg, budget, seed) <= 1.0


def _iid_label_mse(graph, p, reps, budget, seed):
    """Empirical MSE of UN, FN and RW (stationary law) with labels
    redrawn iid per replication; returns dict of per-rep squared errors."""
    gen = stream(seed)
    sq = {"UN": np.empty(reps), "FN": np.empty(reps), "RW": np.empty(reps)}
    for r in range(reps):
        labels = (gen.random(graph.node_count) < p).astype(np.int64)
        lg = LabeledGraph(graph, labels)
        truth = lg.true_fraction
        for kind in ("UN", "FN", "RW"):
            key = (ord(kind[0]), r)
            est = _stationary_poll(lg, budget, seed, *key) if kind == "RW" \
                else _poll(kind, lg, budget, seed, *key)
            sq[kind][r] = (est - truth) ** 2
    return sq


def test_iid_label_mse_ordering(star_chord):
    sq = _iid_label_mse(star_chord, p=0.4, reps=20_000, budget=5, seed=21)
    mse = {k: v.mean() for k, v in sq.items()}
    assert mse["FN"] < mse["UN"]
    assert mse["RW"] < mse["UN"]


def test_iid_label_variance_ordering_on_assortative_graph():
    # With iid labels all three are unbiased and Var = sigma_f^2 E[1/d]/b
    # under each law.  The walk <= friend-of-node <= uniform ordering is
    # characteristic of assortative/neutral degree mixing (a disassortative
    # graph can flip the first comparison), so exercise it there.
    spec = ConfigModelSpec(node_count=300, power_law_exponent=2.4,
                           k_min=1, k_max=25, seed=2)
    g, _ = configuration_model(spec)
    g = rewire_to_assortativity(g, RewireTarget(0.15), stream(7))
    d = g.degrees.astype(float)
    inv_uniform = float(np.mean(1 / d))
    inv_friend = g.node_count / g.edge_end_count
    inv_neighbor = float(
        np.dot(g.adjacency_matvec(1 / d) / g.node_count, 1 / d))
    assert inv_friend < inv_neighbor < inv_uniform
    sq = _iid_label_mse(g, p=0.4, reps=4_000, budget=5, seed=22)
    assert sq["RW"].mean() < sq["FN"].mean() < sq["UN"].mean()


def test_replication_reads_its_block_of_the_stream(star_chord):
    # replication r reads doubles [r*k, (r+1)*k) of the stream as rows of
    # budget uniforms: row 0 picks nodes floor(u n), every further row (the
    # FN neighbor, the RW steps) moves each to neighbor floor(u d)
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    g, budget, reps, length = lg.graph, 3, 5, 4
    for kind, rows in (("IP", 1), ("UN", 1), ("FN", 2), ("RW", 1 + length)):
        u = stream(17).random((reps, rows, budget))
        nodes = np.floor(u[:, 0] * g.node_count).astype(np.int64)
        for row in range(1, rows):
            pick = np.floor(u[:, row] * g.degrees[nodes]).astype(np.int64)
            nodes = g.neighbors[g.indptr[nodes] + pick]
        table = lg.labels if kind == "IP" else lg.responses
        assert np.array_equal(
            poll_values(kind, lg, budget, stream(17), reps,
                        walk_length=length),
            table[nodes].mean(axis=1))


def test_budget_must_be_positive(star_lg):
    with pytest.raises(ValueError):
        poll_values("IP", star_lg, 0, stream(0), 1)


@pytest.mark.parametrize("kind,budget,reps,length", [
    ("IP", 0, 1, None), ("XX", 1, 1, None), ("UN", 1, -1, None),
    ("FN", 1, range(0, 4, 2), None), ("RW", 1, range(-1, 3), None),
    ("RW", 1, 2, -1), ("RW", 1, 2, -2),
])
def test_bad_poll_arguments_are_data_errors(star_chord, kind, budget, reps,
                                            length):
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    with pytest.raises(DataError):
        poll_values(kind, lg, budget, stream(0), reps, walk_length=length)
