import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nepoll import (ConfigModelSpec, DataError, LabelTarget, LabeledGraph,
                    LawSampler, assign_labels, brute_force_estimator_law,
                    build_graph, configuration_model, poll_values, replicate,
                    respondent_law, stream, walk_law)

from _strategies import labeled_graphs

BIG_BUDGET = 100_000


def _band(variance, budget=BIG_BUDGET, sigmas=4):
    return sigmas * math.sqrt(variance / budget)


def _poll(kind, lg, budget, seed, *key, **options):
    return poll_values(kind, lg, budget, stream(seed, *key), 1, **options)[0]


@pytest.mark.parametrize("kind", ["IP", "UN", "FN", "RW"])
def test_constant_labels_give_exact_estimates(star, kind):
    lg = LabeledGraph(star, [1, 1, 1, 1])
    for b in (1, 7, 50):
        assert _poll(kind, lg, b, b) == 1.0


def test_single_draw_law_triangle(k3_lg):
    values = poll_values("IP", k3_lg, 1, stream(0), 400)
    assert set(values) <= {0.0, 1.0}
    freq = np.mean(values)
    assert abs(freq - 1 / 3) <= _band(2 / 9, budget=400)


# A labeled graph, a kind, its walk length (None: no walk), the stream key
# of the polls, and the pinned enumerated (mean, var1).
CONVERGENCE = [
    ("star_lg", "IP", None, (13,), None),
    ("star_lg", "UN", None, (13,), None),
    ("star_lg", "FN", None, (13,), None),
    ("star_lg", "RW", None, (14,), (0.5, 0.25)),   # d/M
    # regular: the endpoint law is uniform at any length
    ("k3_lg", "RW", 3, (15,), (1 / 3, 1 / 18)),
    # the cell stream of replicate(lg, "RW", 1, BIG_BUDGET, 88)
    ("star_chord_lg", "RW", 60, (88, 2, 1), None),
]


@pytest.mark.parametrize("graph,kind,length,key,pinned", CONVERGENCE,
                         ids=[f"{row[0]}-{row[1]}" for row in CONVERGENCE])
def test_polls_converge_to_enumerated_law(request, graph, kind, length, key,
                                          pinned):
    # BIG_BUDGET one-respondent polls, the draws of one poll of budget
    # BIG_BUDGET: their mean and variance approach the enumerated moments
    # at the 1/sqrt(reps) rate; checked at 4 sigma
    lg = request.getfixturevalue(graph)
    walk = None if length is None else walk_law(lg.graph, length)
    mean, var = brute_force_estimator_law(lg, kind, walk)
    if pinned is not None:
        assert (mean, var) == pinned
    values = poll_values(kind, lg, 1, stream(*key), BIG_BUDGET,
                         respondents=LawSampler(
                             respondent_law(lg.graph, kind, walk)))
    assert abs(values.mean() - mean) <= _band(var)
    fourth = np.mean((values - mean) ** 4)
    se_var = math.sqrt(max(fourth - var ** 2, 0.0) / BIG_BUDGET)
    # second-order term covers the symmetric-Bernoulli case where the
    # first-order variance of the sample variance vanishes
    assert abs(values.var() - var) <= 4 * se_var + 16 * var / BIG_BUDGET


def test_walk_poll_takes_a_disconnected_graph(two_edges):
    # d/M is defined on any graph; every degree is 1 here, so it is UN's law
    lg = LabeledGraph(two_edges, [1, 0, 1, 0])
    assert np.array_equal(poll_values("RW", lg, 3, stream(5), 40),
                          poll_values("UN", lg, 3, stream(5), 40))


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


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs(), seed=st.integers(0, 2**32), budget=st.integers(1, 30))
def test_estimates_always_in_unit_interval(lg, seed, budget):
    for kind in ("IP", "UN", "FN", "RW"):
        assert 0.0 <= _poll(kind, lg, budget, seed) <= 1.0


@pytest.mark.parametrize("kind", ["IP", "UN", "FN", "RW"])
def test_replication_reads_its_block_of_the_stream(star_chord_lg, kind):
    # replication r reads doubles [r*b, (r+1)*b) of the stream, one per
    # respondent: the node at u of the inverse CDF of its kind's law,
    # which for IP and UN is floor(u n)
    lg = star_chord_lg
    g, budget, reps = lg.graph, 3, 5
    u = stream(17).random((reps, budget))
    law = respondent_law(g, kind, walk_law(g, 4))
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
        assert np.array_equal(poll_values(kind, lg, budget, stream(17), reps),
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
def test_bad_poll_arguments_are_data_errors(star_chord_lg, kind, budget,
                                            reps, walk, match):
    respondents = None
    if walk is not None:   # the law of a walk on another graph
        respondents = LawSampler(walk_law(build_graph(walk), 1).law)
    with pytest.raises(DataError, match=match):
        poll_values(kind, star_chord_lg, budget, stream(0), reps,
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
def test_bad_entry_arguments_are_data_errors(star_chord_lg, call, match):
    # checked before the stream key or any array is built, so no bare
    # KeyError or TypeError escapes the polling entry points
    with pytest.raises(DataError, match=match):
        call(star_chord_lg)
