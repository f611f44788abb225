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
                    configuration_model, respondent_law, stream, walk_law)
from nepoll.sampling import WALK_TV_TOLERANCE

from _reference import (friends_of_random_nodes, random_nodes,
                        random_walk_endpoints, sample_random_friends)
from _reference import walk_law as reference_walk_law
from _strategies import graphs

DRAWS = 100_000


def _frequencies(nodes, g):
    return np.bincount(nodes, minlength=g.node_count) / len(nodes)


def _uniforms(seed, shape=DRAWS):
    return stream(seed).random(shape)


def _binomial_band(p, draws=DRAWS, sigmas=3):
    return sigmas * np.sqrt(p * (1 - p) / draws)


def _drawn(g, kind, seed):
    """``DRAWS`` respondents of a ``kind`` poll, from its node law."""
    return LawSampler(respondent_law(g, kind))(_uniforms(seed))


def test_uniform_node_law(star):
    nodes = random_nodes(star, _uniforms(1))
    for kind in ("IP", "UN"):   # unit weights draw the referee's nodes
        assert np.array_equal(_drawn(star, kind, 1), nodes)
    freq = _frequencies(nodes, star)
    assert np.all(np.abs(freq - 0.25) <= _binomial_band(0.25))


def test_uniform_node_degree_mean_regular(k3):
    nodes = LawSampler(respondent_law(k3, "UN"))(_uniforms(2, 1000))
    assert np.mean(k3.degrees[nodes]) == 2.0  # every degree is 2


def test_random_friend_law_star(star):
    # marginal is degree/edge_end_count: center 3/6, each leaf 1/6
    for nodes in (_drawn(star, "RW", 3),
                  sample_random_friends(star, stream(3), DRAWS)):
        freq = _frequencies(nodes, star)
        assert abs(freq[0] - 0.5) <= _binomial_band(0.5)
        mean_deg = freq @ star.degrees
        # Var{d(friend)} = 0.5*9 + 0.5*1 - 4 = 1
        assert abs(mean_deg - 2.0) <= 3 * math.sqrt(1.0 / DRAWS)


def test_random_friend_law_regular(k3):
    for nodes in (_drawn(k3, "RW", 4),
                  sample_random_friends(k3, stream(4), DRAWS)):
        freq = _frequencies(nodes, k3)
        assert np.all(np.abs(freq - 1 / 3) <= _binomial_band(1 / 3))


def test_friend_of_node_law_star(star):
    for nodes in (_drawn(star, "FN", 5),
                  friends_of_random_nodes(star, *_uniforms(5, (2, DRAWS)))):
        freq = _frequencies(nodes, star)
        # every leaf's only neighbor is the center
        assert abs(freq[0] - 0.75) <= _binomial_band(0.75)
        mean_deg = freq @ star.degrees
        # E[d] = 2.5, Var{d} = 0.75*9 + 0.25*1 - 6.25 = 0.75
        assert abs(mean_deg - 2.5) <= 3 * math.sqrt(0.75 / DRAWS)


def test_friend_of_node_law_regular(k3):
    for nodes in (_drawn(k3, "FN", 6),
                  friends_of_random_nodes(k3, *_uniforms(6, (2, DRAWS)))):
        freq = _frequencies(nodes, k3)
        assert np.all(np.abs(freq - 1 / 3) <= _binomial_band(1 / 3))


def test_friend_of_node_law_matches_two_stage_draws():
    # the FN law drawn by inverse CDF and the two-stage referee (a uniform
    # node, then a uniform neighbor) have the same frequencies, within the
    # binomial band, per quarter of the nodes ranked by exact mass
    g = _config_graph()
    law = respondent_law(g, "FN")
    law = law / law.sum()   # a law is defined only up to scale
    groups = np.array_split(np.argsort(law, kind="stable"), 4)
    mass = np.array([law[group].sum() for group in groups])
    for nodes in (_drawn(g, "FN", 18),
                  friends_of_random_nodes(g, *_uniforms(19, (2, DRAWS)))):
        freq = _frequencies(nodes, g)
        got = np.array([freq[group].sum() for group in groups])
        assert np.all(np.abs(got - mass) <= _binomial_band(mass))


def test_zero_length_walk_returns_start(star):
    gen = stream(7)
    assert random_walk_endpoints(star, [2], 0, gen).tolist() == [2]


def test_single_step_walk_triangle(k3):
    walks = DRAWS // 10
    ends = random_walk_endpoints(k3, np.zeros(walks, dtype=np.int64), 1,
                                 stream(8))
    freq = np.bincount(ends, minlength=3) / walks
    band = _binomial_band(0.5, draws=walks)
    assert freq[0] == 0.0
    assert abs(freq[1] - 0.5) <= band
    assert abs(freq[2] - 0.5) <= band


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
    np.zeros(3), np.array([1.0, -1.0, 1.0]), np.array([1.0, np.nan, 1.0]),
    np.array([1.0, np.inf, 1.0])], ids=["zero", "negative", "nan", "inf"])
def test_law_sampler_rejects_a_bad_law(law):
    with pytest.raises(DataError, match="^a node law must be a 1-D array of "
                                        "finite, nonnegative weights with a "
                                        "positive sum$"):
        LawSampler(law)


def test_uniform_block_matches_streamed_walk(star_chord):
    starts = np.array([0, 1, 2, 3, 0, 1])
    streamed = random_walk_endpoints(star_chord, starts, 17, stream(12))
    block = stream(12).random((17, len(starts)))
    assert np.array_equal(
        random_walk_endpoints(star_chord, starts, 17, block), streamed)
    # a strided (length, 2, 3) view reads the walkers in C order
    view = block.reshape(17, 3, 2).transpose(0, 2, 1)
    order = np.array([0, 2, 4, 1, 3, 5])
    assert np.array_equal(
        random_walk_endpoints(star_chord, starts[order], 17, view),
        streamed[order])


def test_walk_stationary_law_nonbipartite(star_chord):
    g = star_chord
    stationary = g.degrees / g.edge_end_count
    gen = stream(9)
    starts = random_nodes(g, gen.random(DRAWS))
    ends = random_walk_endpoints(g, starts, length=100, uniforms=gen)
    freq = np.bincount(ends, minlength=g.node_count) / DRAWS
    for v in range(g.node_count):
        assert abs(freq[v] - stationary[v]) <= _binomial_band(stationary[v])


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


def _config_graph():
    return configuration_model(ConfigModelSpec(300, 2.4, k_min=3, k_max=30,
                                               seed=4))[0]


def test_walk_law_matches_scipy_matrix_powers():
    g = _config_graph()
    n = g.node_count
    u, v = g.edges.T
    arcs = (np.concatenate([u, v]), np.concatenate([v, u]))
    adjacency = sp.csr_array((np.ones(2 * g.edge_count), arcs), shape=(n, n))
    step = sp.diags_array(1.0 / g.degrees) @ adjacency
    for length in (0, 1, 5, 25):
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


def test_same_seed_same_sequence(star_chord):
    a = stream(42)
    b = stream(42)
    seq_a = sample_random_friends(star_chord, a, 100)
    seq_b = sample_random_friends(star_chord, b, 100)
    assert np.array_equal(seq_a, seq_b)


def test_substreams_are_deterministic_and_distinct(star_chord):
    draw = LawSampler(respondent_law(star_chord, "UN"))
    s_one = draw(stream(42, 0, 5).random(8))
    s_two = draw(stream(42, 0, 5).random(8))
    assert np.array_equal(s_one, s_two)
    a = stream(42, 1).integers(0, 1 << 30, size=8)
    b = stream(42, 2).integers(0, 1 << 30, size=8)
    assert not np.array_equal(a, b)


def test_batch_walk_matches_seeded_rerun(star_chord):
    starts = np.array([0, 1, 2, 3, 0, 1])
    one = random_walk_endpoints(star_chord, starts, 17,
                                stream(11))
    two = random_walk_endpoints(star_chord, starts, 17,
                                stream(11))
    assert np.array_equal(one, two)


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


@pytest.mark.parametrize("graph,length", [
    ("star_chord", 17), ("path", None), ("config", None)])
def test_law_sampler_matches_simulated_walks(request, graph, length):
    # the endpoints of simulated walks and the draws from the exact law both
    # have the walk law's frequencies, within the binomial band: per node
    # on the 4-node graphs, per quarter of the nodes ranked by mass on the
    # 300-node graph (300 checks at 3 sigma would each miss 0.27% of runs)
    g = {"star_chord": lambda: request.getfixturevalue("star_chord"),
         "path": lambda: build_graph([(0, 1), (1, 2), (2, 3)]),
         "config": _config_graph}[graph]()
    walk = walk_law(g, length)
    gen = stream(16)
    starts = random_nodes(g, gen.random(DRAWS))
    walked = random_walk_endpoints(g, starts, walk.length, gen)
    drawn = LawSampler(walk.law)(stream(17).random(DRAWS))
    groups = np.array_split(np.argsort(walk.law, kind="stable"), 4)
    mass = np.array([walk.law[group].sum() for group in groups])
    for ends in (walked, drawn):
        freq = _frequencies(ends, g)
        got = np.array([freq[group].sum() for group in groups])
        assert np.all(np.abs(got - mass) <= _binomial_band(mass))


def test_regular_graph_laws_coincide(k3):
    # exact marginals: uniform = friend = neighbor-of-node on regular graphs
    uniform = np.full(3, 1 / 3)
    friend = k3.degrees / k3.edge_end_count
    neighbor = respondent_law(k3, "FN")
    neighbor = neighbor / neighbor.sum()
    assert np.allclose(friend, uniform, atol=1e-15)
    assert np.allclose(neighbor, uniform, atol=1e-15)
