"""Sampling primitives: uniform nodes, their neighbors, random walks.

Three node laws drive everything downstream:

* a uniform node (probability 1/n each),
* a random friend (node v with probability d(v)/M, M the number of edge
  endpoints), the stationary law of the random walk,
* a random friend of a random node: a uniform neighbor of a uniform node.

The samplers map a uniform u in [0, 1) to node ``floor(u * n)`` or to
neighbor ``floor(u * d(v))`` of ``v``.  The uniforms come from
:func:`stream` generators, so runs replay on any host.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .graph import Graph


def stream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream of ``seed`` and the integer ``key``: the same pair
    always reproduces the same draws, and distinct keys give independent
    streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def default_walk_length(node_count: int) -> int:
    """Mixing-time heuristic: ten sweeps of log2(n) steps."""
    return 10 * math.ceil(math.log2(max(node_count, 2)))


def sample_random_nodes(g: Graph, u: np.ndarray) -> np.ndarray:
    """Uniform nodes ``floor(u * n)``, shaped like the uniforms ``u``."""
    return (u * g.node_count).astype(np.int64)


def _uniform_neighbors(g: Graph, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    return g.neighbors[g.indptr[v] + (u * g.degrees[v]).astype(np.int64)]


def sample_friends_of_random_nodes(g: Graph, u_node: np.ndarray,
                                   u_friend: np.ndarray) -> np.ndarray:
    """Uniform nodes (``u_node``), then a neighbor of each (``u_friend``)."""
    return _uniform_neighbors(g, sample_random_nodes(g, u_node), u_friend)


def random_walk_endpoints(g: Graph, starts: np.ndarray, length: int,
                          uniforms: np.random.Generator | np.ndarray
                          ) -> np.ndarray:
    """Endpoints of independent walks of ``length`` steps from ``starts``.

    Each step maps one uniform ``u`` in [0, 1) per walker to a uniform
    neighbor: a walker at ``v`` moves to
    ``neighbors[indptr[v] + floor(u * d(v))]``.  ``uniforms`` is a
    generator that draws ``random(len(starts))`` per step, or those
    draws as an array, ``uniforms[step]`` read in C order (a strided view
    is not copied); ``random((length, m))`` yields the same bits as
    ``length`` calls of ``random(m)``.
    """
    if length < 0:
        raise DataError(f"walk length must be >= 0, got {length}")
    cur = np.array(starts, dtype=np.int64)
    for step in range(length):
        u = uniforms[step] if isinstance(uniforms, np.ndarray) \
            else uniforms.random(len(cur))
        cur = _uniform_neighbors(g, cur.reshape(u.shape), u).reshape(-1)
    return cur
