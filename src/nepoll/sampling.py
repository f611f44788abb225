"""Sampling primitives: walk endpoint laws, and one sampler.

Every poll draws its respondents from one node law, the law of the
endpoint of a walk of some length L from a uniform node:

* L = 0: a uniform node (probability 1/n each),
* L = 1: a random friend of a random node, a uniform neighbor of a uniform
  node,
* L > 1: a walk of that length; on a connected, non-bipartite graph its
  law approaches the random-friend law d(v)/M (M the number of edge
  endpoints), the walk's stationary law, as L grows.

:func:`walk_law` computes each of these laws exactly.

:class:`LawSampler` maps a uniform u in [0, 1) through a law's inverse
CDF; with unit weights that is node ``floor(u * n)``.  The uniforms come
from :func:`stream` generators, so runs replay anywhere.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DataError, require_count
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
    if length is not None:
        require_count("walk length", length, 0)
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


# Forward steps of a guided draw before a bisection ends its search, so a
# bucket of many nodes (a star's leaves after one step) cannot stall it.
_SCAN_STEPS = 4


class LawSampler:
    """Inverse-CDF draws from a node law ``law``: a 1-D array of finite,
    nonnegative weights with a positive sum, defined up to scale (anything
    else raises ``DataError``).

    A uniform u in [0, 1) maps to the first node whose cumulative mass
    exceeds ``u * total``, i.e. ``searchsorted(cdf, u * total, "right")``,
    clamped to the first node that holds the total (``u * total`` can round
    up to it), so a node of zero mass is never drawn.  A guide table (Chen
    & Asau 1974) of n equal buckets starts each search at the first node
    past its bucket's lower edge: a draw takes one step in expectation.

    With unit weights (``unit``: every weight exactly 1) the cdf holds the
    integers 1..n and ``u * total`` is the float ``u * n``, the product
    that picks the bucket, so the search ends at once on node
    ``floor(u * n)``: such a law is drawn by that one multiply.  Other
    constant laws keep the search: for c != 1, ``u * (c * n)`` can round
    across a bucket edge that ``u * n`` does not.
    """

    def __init__(self, law: np.ndarray):
        law = np.asarray(law, dtype=np.float64)
        if law.ndim != 1 or not ((law >= 0) & (law < np.inf)).all() \
                or not law.any():
            raise DataError("a node law must be a 1-D array of finite, "
                            "nonnegative weights with a positive sum")
        self.unit = bool((law == 1.0).all())
        self.cdf = cdf = np.cumsum(law)
        self.total = cdf[-1]
        cdf[np.searchsorted(cdf, self.total):] = np.inf   # the clamp
        if not self.unit:   # the multiply needs no guide
            self.lower = np.arange(len(cdf)) * (self.total / len(cdf))
            self.guide = np.searchsorted(cdf, self.lower, side="right")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Nodes drawn by the uniforms ``u``, shaped like ``u``."""
        if self.unit:
            return (u * len(self.cdf)).astype(np.int64)
        x = u * self.total
        bucket = (u * len(self.guide)).astype(np.int64)
        bucket -= self.lower[bucket] > x   # u * n rounded up past an edge
        nodes = self.guide[bucket]
        for _ in range(_SCAN_STEPS):
            ahead = self.cdf[nodes] <= x
            if not ahead.any():
                return nodes
            nodes += ahead
        rest = np.flatnonzero(self.cdf[nodes] <= x)
        nodes.flat[rest] = np.searchsorted(self.cdf, x.flat[rest],
                                           side="right")
        return nodes
