"""Seeded sampling primitives: uniform nodes, their neighbors, random walks.

Three node laws drive everything downstream:

* a uniform node (probability 1/n each),
* a random friend (node v with probability d(v)/M, M the number of edge
  endpoints), the stationary law of the random walk,
* a random friend of a random node: a uniform neighbor of a uniform node.

All randomness flows through :class:`RandomStream`, whose substreams are
derived deterministically from (seed, key) so that replications are
reproducible regardless of host or execution order.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph


class RandomStream:
    """A PCG64 stream with deterministic substream derivation.

    ``substream(*key)`` yields an independent stream identified by the
    integer tuple ``key``; the same (seed, key) pair always reproduces the
    same sample sequence.
    """

    __slots__ = ("sequence", "generator")

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self.sequence = seed
        else:
            self.sequence = np.random.SeedSequence(int(seed))
        self.generator = np.random.Generator(np.random.PCG64(self.sequence))

    def substream(self, *key: int) -> "RandomStream":
        child = np.random.SeedSequence(
            entropy=self.sequence.entropy,
            spawn_key=self.sequence.spawn_key + tuple(int(k) for k in key))
        return RandomStream(child)


def default_walk_length(node_count: int) -> int:
    """Mixing-time heuristic: ten sweeps of log2(n) steps."""
    return 10 * math.ceil(math.log2(max(node_count, 2)))


def sample_random_nodes(g: Graph, rs: RandomStream, size: int) -> np.ndarray:
    return rs.generator.integers(0, g.node_count, size=size)


def sample_friends_of_random_nodes(g: Graph, rs: RandomStream,
                                   size: int) -> np.ndarray:
    """Uniform nodes, then a uniform neighbor of each."""
    v = rs.generator.integers(0, g.node_count, size=size)
    return g.neighbors[g.indptr[v] + rs.generator.integers(0, g.degrees[v])]


def random_walk_endpoints(g: Graph, starts: np.ndarray, length: int,
                          rs: RandomStream | np.ndarray,
                          lazy: bool = False) -> np.ndarray:
    """Endpoints of independent walks of ``length`` steps from ``starts``.

    Each step maps one uniform ``u`` in [0, 1) per walker to a uniform
    neighbor: a walker at ``v`` moves to
    ``neighbors[indptr[v] + floor(u * d(v))]``.  The ``lazy`` walk (which
    mixes on bipartite graphs) stays put when ``u < 1/2`` and otherwise
    steps with ``2u - 1``, exactly uniform on [0, 1) again.  ``rs`` is a
    :class:`RandomStream` that draws ``random(len(starts))`` per step, or
    those draws as one ``(length, len(starts))`` array, used row by row:
    ``random((length, m))`` yields the same bits as ``length`` calls of
    ``random(m)``.
    """
    if length < 0:
        raise ValueError("walk length must be >= 0")
    cur = np.array(starts, dtype=np.int64)
    for step in range(length):
        u = rs[step] if isinstance(rs, np.ndarray) \
            else rs.generator.random(len(cur))
        if lazy:
            stay = u < 0.5
            u = np.where(stay, 0.0, 2.0 * u - 1.0)
        nxt = g.neighbors[g.indptr[cur]
                          + (u * g.degrees[cur]).astype(np.int64)]
        cur = np.where(stay, cur, nxt) if lazy else nxt
    return cur
