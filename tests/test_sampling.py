import math

import numpy as np
import pytest

from nepoll import (RandomStream, default_walk_length, random_walk_endpoints,
                    sample_friends_of_random_nodes, sample_random_friends,
                    sample_random_nodes)

DRAWS = 100_000


def _frequencies(sampler, g, seed, draws=DRAWS):
    nodes = sampler(g, RandomStream(seed), draws)
    return np.bincount(nodes, minlength=g.node_count) / draws


def _binomial_band(p, draws=DRAWS, sigmas=3):
    return sigmas * math.sqrt(p * (1 - p) / draws)


def test_uniform_node_law(star):
    freq = _frequencies(sample_random_nodes, star, seed=1)
    band = _binomial_band(0.25)
    assert np.all(np.abs(freq - 0.25) <= band)


def test_uniform_node_degree_mean_regular(k3):
    rs = RandomStream(2)
    degs = k3.degrees[sample_random_nodes(k3, rs, 1000)]
    assert np.mean(degs) == 2.0  # every degree is 2


def test_random_friend_law_star(star):
    freq = _frequencies(sample_random_friends, star, seed=3)
    # marginal is degree/edge_end_count: center 3/6, each leaf 1/6
    assert abs(freq[0] - 0.5) <= _binomial_band(0.5)
    mean_deg = freq @ star.degrees
    # Var{d(friend)} = 0.5*9 + 0.5*1 - 4 = 1
    assert abs(mean_deg - 2.0) <= 3 * math.sqrt(1.0 / DRAWS)


def test_random_friend_law_regular(k3):
    freq = _frequencies(sample_random_friends, k3, seed=4)
    band = _binomial_band(1 / 3)
    assert np.all(np.abs(freq - 1 / 3) <= band)


def test_friend_of_node_law_star(star):
    freq = _frequencies(sample_friends_of_random_nodes, star, seed=5)
    # every leaf's only neighbor is the center
    assert abs(freq[0] - 0.75) <= _binomial_band(0.75)
    mean_deg = freq @ star.degrees
    # E[d] = 2.5, Var{d} = 0.75*9 + 0.25*1 - 6.25 = 0.75
    assert abs(mean_deg - 2.5) <= 3 * math.sqrt(0.75 / DRAWS)


def test_friend_of_node_law_regular(k3):
    freq = _frequencies(sample_friends_of_random_nodes, k3, seed=6)
    band = _binomial_band(1 / 3)
    assert np.all(np.abs(freq - 1 / 3) <= band)


def test_zero_length_walk_returns_start(star):
    rs = RandomStream(7)
    assert random_walk_endpoints(star, [2], 0, rs).tolist() == [2]


def test_single_step_walk_triangle(k3):
    walks = DRAWS // 10
    ends = random_walk_endpoints(k3, np.zeros(walks, dtype=np.int64), 1,
                                 RandomStream(8))
    freq = np.bincount(ends, minlength=3) / walks
    band = _binomial_band(0.5, draws=walks)
    assert freq[0] == 0.0
    assert abs(freq[1] - 0.5) <= band
    assert abs(freq[2] - 0.5) <= band


def test_step_map_stays_in_range():
    # the largest uniform must still pick an index below the degree, for
    # the plain step floor(u d) and for the lazy step floor((2u - 1) d)
    u = np.nextafter(1.0, 0.0)
    d = np.arange(1, 2 ** 22 + 1, dtype=np.float64)
    assert np.all(np.floor(u * d) < d)
    assert np.all(np.floor((2.0 * u - 1.0) * d) < d)


def test_uniform_block_matches_streamed_walk(star_chord):
    starts = np.array([0, 1, 2, 3, 0, 1])
    for lazy in (False, True):
        streamed = random_walk_endpoints(star_chord, starts, 17,
                                         RandomStream(12), lazy=lazy)
        block = RandomStream(12).generator.random((17, len(starts)))
        assert np.array_equal(
            random_walk_endpoints(star_chord, starts, 17, block, lazy=lazy),
            streamed)


def test_walk_stationary_law_nonbipartite(star_chord):
    g = star_chord
    stationary = g.degrees / g.edge_end_count
    rs = RandomStream(9)
    starts = rs.generator.integers(0, g.node_count, size=DRAWS)
    ends = random_walk_endpoints(g, starts, length=100, rs=rs)
    freq = np.bincount(ends, minlength=g.node_count) / DRAWS
    for v in range(g.node_count):
        assert abs(freq[v] - stationary[v]) <= _binomial_band(stationary[v])


def test_lazy_walk_mixes_on_bipartite_star(star):
    stationary = star.degrees / star.edge_end_count
    rs = RandomStream(10)
    starts = rs.generator.integers(0, star.node_count, size=DRAWS)
    ends = random_walk_endpoints(star, starts, length=60, rs=rs, lazy=True)
    freq = np.bincount(ends, minlength=star.node_count) / DRAWS
    for v in range(star.node_count):
        assert abs(freq[v] - stationary[v]) <= _binomial_band(stationary[v])


def test_walk_length_validation(star):
    with pytest.raises(ValueError):
        random_walk_endpoints(star, [0], -1, RandomStream(0))


def test_default_walk_length():
    assert default_walk_length(2) == 10
    assert default_walk_length(500) == 90
    assert default_walk_length(2000) == 110


def test_same_seed_same_sequence(star_chord):
    a = RandomStream(42)
    b = RandomStream(42)
    seq_a = sample_random_friends(star_chord, a, 100)
    seq_b = sample_random_friends(star_chord, b, 100)
    assert np.array_equal(seq_a, seq_b)


def test_substreams_are_deterministic_and_distinct(star_chord):
    root = RandomStream(42)
    s_one = sample_random_nodes(star_chord,
                                RandomStream(42).substream(0, 5), 8)
    s_two = sample_random_nodes(star_chord, root.substream(0, 5), 8)
    assert np.array_equal(s_one, s_two)
    a = root.substream(1).generator.integers(0, 1 << 30, size=8)
    b = root.substream(2).generator.integers(0, 1 << 30, size=8)
    assert not np.array_equal(a, b)


def test_batch_walk_matches_seeded_rerun(star_chord):
    starts = np.array([0, 1, 2, 3, 0, 1])
    one = random_walk_endpoints(star_chord, starts, 17, RandomStream(11))
    two = random_walk_endpoints(star_chord, starts, 17, RandomStream(11))
    assert np.array_equal(one, two)


def test_regular_graph_laws_coincide(k3):
    # exact marginals: uniform = friend = neighbor-of-node on regular graphs
    uniform = np.full(3, 1 / 3)
    friend = k3.degrees / k3.edge_end_count
    neighbor = k3.adjacency_matvec(1.0 / k3.degrees) / k3.node_count
    assert np.allclose(friend, uniform, atol=1e-15)
    assert np.allclose(neighbor, uniform, atol=1e-15)
