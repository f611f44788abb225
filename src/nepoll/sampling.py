"""Sampling primitives: uniform nodes, their neighbors, random walks.

Three node laws drive everything downstream:

* a uniform node (probability 1/n each),
* a random friend (node v with probability d(v)/M, M the number of edge
  endpoints), the stationary law of the random walk,
* a random friend of a random node: a uniform neighbor of a uniform node.

A walk of finite length L from a uniform node ends in a fourth law, which
:func:`walk_law` computes exactly; on a connected, non-bipartite graph it
approaches the random-friend law as L grows.

The samplers map a uniform u in [0, 1) to node ``floor(u * n)`` or to
neighbor ``floor(u * d(v))`` of ``v``.  The uniforms come from
:func:`stream` generators, so runs replay on any host.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .graph import Graph


def stream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream of ``seed`` and the integer ``key``: the same pair
    always reproduces the same draws, and distinct keys give independent
    streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# A walk is certified as mixed once the law of its endpoint lies within
# this total variation of the random-friend law d/M.
WALK_TV_TOLERANCE = 1e-6


class WalkLaw(NamedTuple):
    """The law ``law`` of the endpoint of a ``length``-step walk from a
    uniform node, and ``tv``, its total variation distance to d/M."""

    length: int
    law: np.ndarray
    tv: float


def walk_law(g: Graph, length: int | None = None) -> WalkLaw:
    """The exact endpoint law pi_L = u P^L of an L-step walk from a uniform
    node u, with P = D^-1 A; each step is one ``adjacency_matvec``.

    With ``length`` given, L is that length.  Otherwise L is the certified
    length: the smallest L >= 1 whose law lies within ``WALK_TV_TOLERANCE``
    of d/M, capped at ten sweeps of log2 n steps.  A walk that never gets
    that close walks the cap: on a bipartite graph with sides of unequal
    size, the mass of each side alternates from step to step.
    """
    if length is not None and length < 0:
        raise DataError(f"walk length must be >= 0, got {length}")
    stationary = g.degrees / g.edge_end_count

    def distance(pi: np.ndarray) -> float:
        return 0.5 * float(np.abs(pi - stationary).sum())

    steps = 10 * math.ceil(math.log2(max(g.node_count, 2))) \
        if length is None else length
    pi = np.full(g.node_count, 1.0 / g.node_count)
    for step in range(1, steps + 1):
        pi = g.adjacency_matvec(pi / g.degrees)
        if length is None and distance(pi) <= WALK_TV_TOLERANCE:
            return WalkLaw(step, pi, distance(pi))
    return WalkLaw(steps, pi, distance(pi))


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
