import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nepoll import (ConfigModelSpec, DataError, LabelTarget, LabeledGraph,
                    LawSampler, RewireTarget, assign_labels,
                    brute_force_estimator_law, build_graph,
                    configuration_model, poll_values, replicate,
                    respondent_law, rewire_to_assortativity, stream,
                    walk_law)

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
    walk = walk_law(k3_lg.graph, 3)
    est = _poll("RW", k3_lg, BIG_BUDGET, 15,
                respondents=LawSampler(walk.law))
    assert abs(est - mean) <= _band(var)


def test_walk_estimator_requires_connected(two_edges):
    lg = LabeledGraph(two_edges, [1, 0, 1, 0])
    with pytest.raises(DataError, match="^random-walk polling requires a "
                                        "connected graph$"):
        _poll("RW", lg, 2, 0)


def test_walk_poll_defaults_to_the_friend_law():
    # without a walk, RW draws from d/M, the law respondent_law(g, "RW")
    # gives; the sweep passes the law of the walk it certified
    g, _ = configuration_model(ConfigModelSpec(300, 2.4, k_min=3, k_max=30,
                                               seed=4))
    lg = assign_labels(g, LabelTarget(0.3), stream(2))
    cdf = np.cumsum(g.degrees)   # exact integers, total M
    u = stream(3).random((20, 7))
    nodes = np.searchsorted(cdf, u * g.edge_end_count, side="right")
    assert np.array_equal(poll_values("RW", lg, 7, stream(3), 20),
                          lg.responses[nodes].mean(axis=1))


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
    # the laws do not depend on the labels: one sampler per kind
    samplers = {kind: LawSampler(respondent_law(graph, kind))
                for kind in ("UN", "FN")}
    sq = {"UN": np.empty(reps), "FN": np.empty(reps), "RW": np.empty(reps)}
    for r in range(reps):
        labels = (gen.random(graph.node_count) < p).astype(np.int64)
        lg = LabeledGraph(graph, labels)
        truth = lg.true_fraction
        for kind in ("UN", "FN", "RW"):
            key = (ord(kind[0]), r)
            est = _stationary_poll(lg, budget, seed, *key) if kind == "RW" \
                else _poll(kind, lg, budget, seed, *key,
                           respondents=samplers[kind])
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
    # replication r reads doubles [r*b, (r+1)*b) of the stream, one per
    # respondent: the node at u of the inverse CDF of its kind's law,
    # which for IP and UN is floor(u n)
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    g, budget, reps = lg.graph, 3, 5
    walk = walk_law(g, 4)
    u = stream(17).random((reps, budget))
    for kind in ("IP", "UN", "FN", "RW"):
        law = respondent_law(g, kind, walk)
        cdf = np.cumsum(law)
        nodes = np.searchsorted(cdf, u * cdf[-1], side="right")
        if kind in ("IP", "UN"):
            assert np.array_equal(nodes, np.floor(u * g.node_count))
        table = lg.labels if kind == "IP" else lg.responses
        assert np.array_equal(
            poll_values(kind, lg, budget, stream(17), reps,
                        respondents=LawSampler(law)),
            table[nodes].mean(axis=1))
        if kind != "RW":   # the default sampler draws the same law
            assert np.array_equal(
                poll_values(kind, lg, budget, stream(17), reps),
                table[nodes].mean(axis=1))


@pytest.mark.parametrize("kind,budget,reps,walk,match", [
    ("IP", 0, 1, None, r"^budget must be a count >= 1, got 0$"),
    ("UN", 0, 1, None, r"^budget must be a count >= 1, got 0$"),
    ("XX", 1, 1, None, r"^unknown estimator kind 'XX'$"),
    ("UN", 1, -1, None, r"^reps must be a count >= 0, got -1$"),
    ("FN", 1, range(0, 4, 2), None,
     r"^reps must be a count >= 0, got range\(0, 4, 2\)$"),
    ("RW", 1, 2.0, None, r"^reps must be a count >= 0, got 2\.0$"),
    ("RW", 1, 2, [(0, 1), (1, 2), (2, 0)],
     r"^the respondent law is not over the graph's nodes$"),
])
def test_bad_poll_arguments_are_data_errors(star_chord, kind, budget, reps,
                                            walk, match):
    lg = LabeledGraph(star_chord, [1, 0, 0, 1])
    respondents = None
    if walk is not None:   # the law of a walk on another graph
        respondents = LawSampler(walk_law(build_graph(walk), 1).law)
    with pytest.raises(DataError, match=match):
        poll_values(kind, lg, budget, stream(0), reps,
                    respondents=respondents)


@pytest.mark.parametrize("call,match", [
    (lambda lg: replicate(lg, "XX", 1, 1, 0),
     r"^unknown estimator kind 'XX'$"),
    (lambda lg: replicate(lg, "IP", 2.0, 1, 0),
     r"^budget must be a count >= 1, got 2\.0$"),
    (lambda lg: poll_values("UN", lg, 2.0, stream(0), 1),
     r"^budget must be a count >= 1, got 2\.0$"),
    (lambda lg: walk_law(lg.graph, 2.5),
     r"^walk length must be a count >= 0, got 2\.5$"),
], ids=["replicate-kind", "replicate-budget", "poll-budget", "walk-length"])
def test_bad_entry_arguments_are_data_errors(star_chord, call, match):
    # checked before the stream key or any array is built, so no bare
    # KeyError or TypeError escapes the polling entry points
    with pytest.raises(DataError, match=match):
        call(LabeledGraph(star_chord, [1, 0, 0, 1]))
