import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
import hypothesis.strategies as st
from scipy.sparse.linalg import matrix_power

from nepoll import (ConfigModelSpec, DataError, LawSampler, build_graph,
                    configuration_model, exact_error, respondent_law, stream,
                    walk_law)
from nepoll.sampling import WALK_TV_TOLERANCE

from _reference import (friends_of_random_nodes, random_nodes,
                        random_walk_endpoints, sample_random_friends)
from _reference import walk_law as reference_walk_law
from _strategies import graphs

DRAWS = 100_000
STATIONARY = math.inf   # a walk's limit: d/M, RW's law without a walk


def _frequencies(nodes, g):
    return np.bincount(nodes, minlength=g.node_count) / len(nodes)


def _binomial_band(p, draws=DRAWS, sigmas=3):
    return sigmas * np.sqrt(p * (1 - p) / draws)


def _config_graph():
    return configuration_model(ConfigModelSpec(300, 2.4, k_min=3, k_max=30,
                                               seed=4))[0]


def _uniform(g, length, gen):
    return random_nodes(g, gen.random(DRAWS))


def _two_stage(g, length, gen):
    return friends_of_random_nodes(g, *gen.random((2, DRAWS)))


def _walked(g, length, gen):
    return random_walk_endpoints(g, _uniform(g, 0, gen), length, gen)


def _friends(g, length, gen):
    return sample_random_friends(g, gen, DRAWS)


# A graph, a walk length (None: the certified length; STATIONARY: d/M),
# the referee that draws the same law apart from nepoll, the seed of both
# draws, and the pinned mass of node 0 and mean degree under the law.
LAWS = [
    ("star", 0, _walked, 1, 1 / 4, 1.5),   # a walk of no steps
    ("star", 1, _walked, 8, 3 / 4, 2.5),   # a leaf's friend is 0
    ("star", 1, _two_stage, 5, 3 / 4, 2.5),
    ("star", STATIONARY, _friends, 3, 1 / 2, 2.0),
    ("k3", 0, _uniform, 2, 1 / 3, 2.0),   # regular: the laws coincide
    ("k3", 1, _two_stage, 6, 1 / 3, 2.0),
    ("k3", STATIONARY, _friends, 4, 1 / 3, 2.0),
    ("star_chord", 17, _walked, 16, None, None),
    ("star_chord", 100, _walked, 9, None, None),
    ("path", None, _walked, 16, None, None),
    ("config", None, _walked, 16, None, None),
    ("config", 1, _two_stage, 18, None, None),
]


@pytest.mark.parametrize("graph,length,referee,seed,mass0,mean_degree",
                         LAWS, ids=[f"{row[0]}-{row[1]}-{row[2].__name__[1:]}"
                                    for row in LAWS])
def test_node_laws(request, graph, length, referee, seed, mass0,
                   mean_degree):
    # the draws of LawSampler from a kind's respondent law and the
    # referee's draws both have the law's frequencies, within the binomial
    # band: per node on the small graphs, per quarter of the nodes ranked
    # by mass on the 300-node graph (300 checks at 3 sigma would each miss
    # 0.27% of runs)
    g = {"path": lambda: build_graph([(0, 1), (1, 2), (2, 3)]),
         "config": _config_graph}.get(
        graph, lambda: request.getfixturevalue(graph))()
    if length == STATIONARY:
        weights = respondent_law(g, "RW")
    else:
        walk = walk_law(g, length)
        length = walk.length
        weights = respondent_law(g, {0: "UN", 1: "FN"}.get(length, "RW"),
                                 walk)
    law = weights / weights.sum()   # a law is defined only up to scale
    if mass0 is not None:
        assert law[0] == pytest.approx(mass0)
        assert law @ g.degrees == pytest.approx(mean_degree)
    groups = np.array_split(np.argsort(law, kind="stable"), 4)
    mass = np.array([law[group].sum() for group in groups])
    for nodes in (LawSampler(weights)(stream(seed).random(DRAWS)),
                  referee(g, length, stream(seed))):
        freq = _frequencies(nodes, g)
        got = np.array([freq[group].sum() for group in groups])
        assert np.all(np.abs(got - mass) <= _binomial_band(mass))


def test_step_map_stays_in_range():
    # the largest uniform must still pick an index below the degree for
    # the step floor(u d), and a node below n for the node draw floor(u n)
    u = np.nextafter(1.0, 0.0)
    d = np.arange(1, 2 ** 22 + 1, dtype=np.float64)
    assert np.all(np.floor(u * d) < d)
    wide = stream(13).integers(1, 2 ** 40, size=1_000_000,
                                               endpoint=True)
    for n in (d.astype(np.int64), wide, np.array([2 ** 40])):
        g = SimpleNamespace(node_count=n)
        assert np.all(random_nodes(g, u) < n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 50_000),
       u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=60))
@example(n=3, u=[1 / 3, 2 / 3])
@example(n=49_999, u=[0.5])
def test_unit_weights_draw_floor_u_n(n, u):
    # IP and UN draw through the inverse CDF of unit weights, which is
    # exactly the uniform node floor(u * n), so their polls keep the bytes
    # of the direct map
    u = np.array(u + [0.0, np.nextafter(1.0, 0.0)])
    assert np.array_equal(LawSampler(np.ones(n))(u),
                          (u * n).astype(np.int64))


def _cubic_circulant(n):
    """v joined to v + 1 and to v + n / 2 (mod n): every degree is 3."""
    v = np.arange(n)
    return build_graph(np.r_[np.c_[v, (v + 1) % n],
                             np.c_[v[:n // 2], v[:n // 2] + n // 2]])


@pytest.mark.parametrize("law,unit", [
    (np.ones(1000), True), (np.full(1000, 2.0), False),
    (_cubic_circulant(1000).degrees, False)],
    ids=["ones", "twos", "cubic-degrees"])
def test_only_unit_weights_take_the_multiply(law, unit):
    # all ones draws floor(u * n) by one multiply; any other constant law
    # keeps the search, and every law draws the inverse CDF at each bucket
    # edge k / n, on either side of it, and at u = 1 - 2**-53
    sampler = LawSampler(law)
    assert sampler.unit is unit
    edges = np.arange(len(law)) / len(law)
    u = np.concatenate([edges, np.nextafter(edges, 1.0),
                        np.nextafter(edges[1:], 0.0), [1 - 2.0 ** -53],
                        stream(18).random(10_000)])
    cdf = np.cumsum(law.astype(float))
    assert np.array_equal(sampler(u),
                          np.searchsorted(cdf, u * cdf[-1], side="right"))


@pytest.mark.parametrize("law", [
    np.zeros(4), np.array([1.0, -1.0, 1.0, 1.0]),
    np.array([1.0, np.nan, 1.0, 1.0]), np.array([1.0, np.inf, 1.0, 1.0])],
    ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", ["LawSampler", "exact_error"])
def test_law_sampler_rejects_a_bad_law(star_chord_lg, law, entry):
    # exact_error takes the moments of the laws LawSampler draws, and no
    # other
    take = {"LawSampler": LawSampler,
            "exact_error": lambda w: exact_error(star_chord_lg, "UN", w),
            }[entry]
    with pytest.raises(DataError, match="^a node law must be a 1-D array "
                                        "of finite, nonnegative weights "
                                        "with a positive sum$"):
        take(law)


@pytest.mark.parametrize("length", [-1, -2])
def test_walk_length_validation(star, length):
    with pytest.raises(DataError,
                       match=f"^walk length must be a count >= 0, "
                             f"got {length}$"):
        walk_law(star, length)


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_nodes=12), length=st.integers(0, 20))
def test_walk_law_matches_exact_fractions(g, length):
    exact = reference_walk_law(g, length)
    walk = walk_law(g, length)
    assert walk.length == length
    assert np.abs(walk.law - np.array(exact, dtype=float)).max() <= 1e-12
    tv = sum(abs(p - Fraction(int(d), g.edge_end_count))
             for p, d in zip(exact, g.degrees)) / 2
    assert abs(walk.tv - float(tv)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_nodes=12))
def test_friend_of_node_law_matches_exact_fractions(g):
    # FN's law, defined up to scale, is the two-stage law of a uniform
    # neighbor of a uniform node
    law = respondent_law(g, "FN")
    exact = np.array(reference_walk_law(g, 1), dtype=float)
    assert np.abs(law / law.sum() - exact).max() <= 1e-12


@pytest.mark.parametrize("length", [0, 1, 5, 25])
def test_walk_law_matches_scipy_matrix_powers(length):
    g = _config_graph()
    n = g.node_count
    u, v = g.edges.T
    arcs = (np.concatenate([u, v]), np.concatenate([v, u]))
    adjacency = sp.csr_array((np.ones(2 * g.edge_count), arcs), shape=(n, n))
    step = sp.diags_array(1.0 / g.degrees) @ adjacency
    expected = matrix_power(step, length).T @ np.full(n, 1.0 / n)
    assert np.allclose(walk_law(g, length).law, expected,
                       rtol=1e-12, atol=1e-15)


def _certified(g):
    """The certified walk, checked against its definition: the smallest
    L >= 1 within the tolerance, or the cap 10 * ceil(log2 n)."""
    cap = 10 * math.ceil(math.log2(g.node_count))
    walk = walk_law(g)
    assert 1 <= walk.length <= cap
    if walk.length < cap:
        assert walk.tv <= WALK_TV_TOLERANCE
    if walk.length > 1:
        assert walk_law(g, walk.length - 1).tv > WALK_TV_TOLERANCE
    fixed = walk_law(g, walk.length)
    assert fixed.tv == walk.tv and np.array_equal(fixed.law, walk.law)
    return walk, cap


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_nodes=12))
def test_certified_walk_length_is_the_first_within_tolerance(g):
    _certified(g)


def test_certified_walk_length_examples(k3, star, star_chord):
    assert _certified(k3)[0].length == 1   # regular: u is already d/M
    walk, cap = _certified(_config_graph())
    assert 1 < walk.length < cap
    # |lambda2| ~ 0.73: the walk is still 2.9e-4 from d/M at the cap, 20
    walk, cap = _certified(star_chord)
    assert walk.length == cap and walk.tv > WALK_TV_TOLERANCE
    # a bipartite graph with sides of 1 and 3 nodes alternates forever
    walk, cap = _certified(star)
    assert walk.length == cap and walk.tv == pytest.approx(0.25)
    # with equal sides the alternating part of the uniform start vanishes
    walk, cap = _certified(build_graph([(0, 1), (1, 2), (2, 3)]))
    assert walk.length < cap


def test_substreams_are_deterministic_and_distinct(star_chord):
    draw = LawSampler(respondent_law(star_chord, "UN"))
    s_one = draw(stream(42, 0, 5).random(8))
    s_two = draw(stream(42, 0, 5).random(8))
    assert np.array_equal(s_one, s_two)
    a = stream(42, 1).integers(0, 1 << 30, size=8)
    b = stream(42, 2).integers(0, 1 << 30, size=8)
    assert not np.array_equal(a, b)


def _inverse_cdf(law, u):
    """The first node whose cumulative mass exceeds u * total, clamped to
    the first node that holds the total."""
    cdf = np.cumsum(law)
    last = np.searchsorted(cdf, cdf[-1])
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), last)


_masses = st.one_of(st.just(0.0), st.floats(1e-300, 1.0),
                    st.floats(1e-12, 1e-6))


@st.composite
def _laws(draw):
    """Nonnegative laws with some positive mass: zero-mass nodes anywhere,
    a zero-mass last node, or one hub holding nearly everything."""
    law = np.array(draw(st.lists(_masses, min_size=1, max_size=40)))
    hub = draw(st.integers(0, len(law) - 1))
    if draw(st.booleans()) or not law.any():
        law[hub] = draw(st.floats(0.5, 1e6))
    if draw(st.booleans()):
        law = np.append(law, np.zeros(draw(st.integers(1, 3))))
    return law


@settings(max_examples=300, deadline=None)
@given(law=_laws(), u=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                               min_size=1, max_size=60))
@example(law=np.array([0.0, 5e-324, 0.0]), u=[0.5])   # u * total == total
# floor(u * n) is 1, but u * total lies below the lower edge of bucket 1
@example(law=np.array([0.3372738749000856, 0.6745477498001711, 0.0]),
         u=[1 / 3])
def test_law_sampler_is_the_clamped_inverse_cdf(law, u):
    u = np.array(u + [0.0, np.nextafter(1.0, 0.0)])
    nodes = LawSampler(law)(u)
    assert np.array_equal(nodes, _inverse_cdf(law, u))
    assert np.all(law[nodes] > 0)


def test_law_sampler_on_a_star_after_one_step():
    # the 19,999 leaves share 1/n of the mass and fall in one guide bucket:
    # draws there finish by bisection, still exactly the inverse CDF
    n = 20_000
    law = walk_law(build_graph([(0, v) for v in range(1, n)]), 1).law
    u = np.concatenate([stream(14).random(50_000),
                        1 - stream(15).random(50_000) / n,
                        [0.0, np.nextafter(1.0, 0.0)]])
    nodes = LawSampler(law)(u)
    assert np.array_equal(nodes, _inverse_cdf(law, u))
    assert np.all(law[nodes] > 0)
    assert len(np.unique(nodes[50_000:])) > 1000   # leaves, not the hub
