import math
from types import SimpleNamespace

import numpy as np
import pytest

from nepoll import (DataError, default_walk_length, random_walk_endpoints,
                    sample_friends_of_random_nodes, sample_random_nodes,
                    stream)

from _reference import sample_random_friends

DRAWS = 100_000


def _frequencies(nodes, g):
    return np.bincount(nodes, minlength=g.node_count) / len(nodes)


def _uniforms(seed, shape=DRAWS):
    return stream(seed).random(shape)


def _binomial_band(p, draws=DRAWS, sigmas=3):
    return sigmas * math.sqrt(p * (1 - p) / draws)


def test_uniform_node_law(star):
    freq = _frequencies(sample_random_nodes(star, _uniforms(1)), star)
    band = _binomial_band(0.25)
    assert np.all(np.abs(freq - 0.25) <= band)


def test_uniform_node_degree_mean_regular(k3):
    degs = k3.degrees[sample_random_nodes(k3, _uniforms(2, 1000))]
    assert np.mean(degs) == 2.0  # every degree is 2


def test_random_friend_law_star(star):
    freq = _frequencies(sample_random_friends(star, stream(3), DRAWS),
                        star)
    # marginal is degree/edge_end_count: center 3/6, each leaf 1/6
    assert abs(freq[0] - 0.5) <= _binomial_band(0.5)
    mean_deg = freq @ star.degrees
    # Var{d(friend)} = 0.5*9 + 0.5*1 - 4 = 1
    assert abs(mean_deg - 2.0) <= 3 * math.sqrt(1.0 / DRAWS)


def test_random_friend_law_regular(k3):
    freq = _frequencies(sample_random_friends(k3, stream(4), DRAWS),
                        k3)
    band = _binomial_band(1 / 3)
    assert np.all(np.abs(freq - 1 / 3) <= band)


def test_friend_of_node_law_star(star):
    nodes = sample_friends_of_random_nodes(star, *_uniforms(5, (2, DRAWS)))
    freq = _frequencies(nodes, star)
    # every leaf's only neighbor is the center
    assert abs(freq[0] - 0.75) <= _binomial_band(0.75)
    mean_deg = freq @ star.degrees
    # E[d] = 2.5, Var{d} = 0.75*9 + 0.25*1 - 6.25 = 0.75
    assert abs(mean_deg - 2.5) <= 3 * math.sqrt(0.75 / DRAWS)


def test_friend_of_node_law_regular(k3):
    nodes = sample_friends_of_random_nodes(k3, *_uniforms(6, (2, DRAWS)))
    freq = _frequencies(nodes, k3)
    band = _binomial_band(1 / 3)
    assert np.all(np.abs(freq - 1 / 3) <= band)


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
    # the largest uniform must still pick an index below the degree, for
    # the plain step floor(u d) and for the lazy step floor((2u - 1) d),
    # and a node below n for the node draw floor(u n)
    u = np.nextafter(1.0, 0.0)
    d = np.arange(1, 2 ** 22 + 1, dtype=np.float64)
    assert np.all(np.floor(u * d) < d)
    assert np.all(np.floor((2.0 * u - 1.0) * d) < d)
    wide = stream(13).integers(1, 2 ** 40, size=1_000_000,
                                               endpoint=True)
    for n in (d.astype(np.int64), wide, np.array([2 ** 40])):
        g = SimpleNamespace(node_count=n)
        assert np.all(sample_random_nodes(g, u) < n)


def test_uniform_block_matches_streamed_walk(star_chord):
    starts = np.array([0, 1, 2, 3, 0, 1])
    for lazy in (False, True):
        streamed = random_walk_endpoints(star_chord, starts, 17,
                                         stream(12),
                                         lazy=lazy)
        block = stream(12).random((17, len(starts)))
        assert np.array_equal(
            random_walk_endpoints(star_chord, starts, 17, block, lazy=lazy),
            streamed)
        # a strided (length, 2, 3) view reads the walkers in C order
        view = block.reshape(17, 3, 2).transpose(0, 2, 1)
        order = np.array([0, 2, 4, 1, 3, 5])
        assert np.array_equal(
            random_walk_endpoints(star_chord, starts[order], 17, view,
                                  lazy=lazy),
            streamed[order])


def test_walk_stationary_law_nonbipartite(star_chord):
    g = star_chord
    stationary = g.degrees / g.edge_end_count
    gen = stream(9)
    starts = sample_random_nodes(g, gen.random(DRAWS))
    ends = random_walk_endpoints(g, starts, length=100, uniforms=gen)
    freq = np.bincount(ends, minlength=g.node_count) / DRAWS
    for v in range(g.node_count):
        assert abs(freq[v] - stationary[v]) <= _binomial_band(stationary[v])


def test_lazy_walk_mixes_on_bipartite_star(star):
    stationary = star.degrees / star.edge_end_count
    gen = stream(10)
    starts = sample_random_nodes(star, gen.random(DRAWS))
    ends = random_walk_endpoints(star, starts, length=60, uniforms=gen,
                                 lazy=True)
    freq = np.bincount(ends, minlength=star.node_count) / DRAWS
    for v in range(star.node_count):
        assert abs(freq[v] - stationary[v]) <= _binomial_band(stationary[v])


def test_walk_length_validation(star):
    with pytest.raises(DataError):
        random_walk_endpoints(star, [0], -1, stream(0))


def test_default_walk_length():
    assert default_walk_length(2) == 10
    assert default_walk_length(500) == 90
    assert default_walk_length(2000) == 110


def test_same_seed_same_sequence(star_chord):
    a = stream(42)
    b = stream(42)
    seq_a = sample_random_friends(star_chord, a, 100)
    seq_b = sample_random_friends(star_chord, b, 100)
    assert np.array_equal(seq_a, seq_b)


def test_substreams_are_deterministic_and_distinct(star_chord):
    s_one = sample_random_nodes(star_chord, stream(42, 0, 5).random(8))
    s_two = sample_random_nodes(star_chord, stream(42, 0, 5).random(8))
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


def test_regular_graph_laws_coincide(k3):
    # exact marginals: uniform = friend = neighbor-of-node on regular graphs
    uniform = np.full(3, 1 / 3)
    friend = k3.degrees / k3.edge_end_count
    neighbor = k3.adjacency_matvec(1.0 / k3.degrees) / k3.node_count
    assert np.allclose(friend, uniform, atol=1e-15)
    assert np.allclose(neighbor, uniform, atol=1e-15)
