"""Immutable undirected simple graphs with binary node labels.

A graph is its sorted edge list, stored column-major so that each endpoint
column is contiguous, over which every adjacency product runs.  Only the
search of :func:`graph_flags` reads neighbor lists, in two halves: a
node's higher neighbors are a run of the second edge column, and
:func:`_adjacency` builds the lower ones there, by one sort of m keys, so
the search holds one edge-sized array and no graph keeps it.  Every graph
is made by one constructor, ``Graph(node_count, edge_keys,
original_ids)``, from its sorted, distinct edge keys ``lo * node_count +
hi``.  Outside input reaches it through :func:`build_graph`, which
validates and compacts the ids, or through the edge reader, which takes
the same steps; the generators and the rewiring hold such keys already
and construct the graph once.  Any edge list describing the same graph
produces bit-identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class GraphFlags:
    """Connectivity and bipartiteness, each decided by a full traversal."""

    connected: bool
    bipartite: bool


class Graph:
    """Undirected simple graph over compact node ids 0..n-1.

    ``edge_keys`` holds each edge ``(lo, hi)``, ``lo < hi < node_count``,
    as ``lo * node_count + hi``, sorted and distinct; the constructor
    trusts this, and only it derives ``edges`` and ``degrees`` from it.
    ``edges`` is a column-major ``(edge_count, 2)`` array: ``edges[:, 0]``
    and ``edges[:, 1]`` are contiguous.  ``original_ids[v]`` is node v's id
    in files.  Instances are never mutated, so they are safe to share, save
    that :func:`graph_flags` caches its result on ``_flags``.
    ``edge_end_count`` is the number of edge endpoints (twice the edge
    count), the normalizer of all degree-weighted laws.
    """

    __slots__ = ("node_count", "edges", "degrees", "edge_end_count",
                 "min_degree", "original_ids", "_flags")

    def __init__(self, node_count: int, edge_keys: np.ndarray,
                 original_ids: np.ndarray):
        n = self.node_count = int(node_count)
        self.edges = np.empty((len(edge_keys), 2), dtype=np.int64, order="F")
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        # np.divmod's values, without its remainder pass
        np.floor_divide(edge_keys, n, out=lo)
        np.multiply(lo, n, out=hi)
        np.subtract(edge_keys, hi, out=hi)
        self.degrees = np.bincount(self.edges.ravel(order="K"), minlength=n)
        self.edge_end_count = int(self.degrees.sum())
        self.min_degree = int(self.degrees.min())
        self.original_ids = original_ids
        self._flags: GraphFlags | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x in floats: each edge (u, v) adds x[v] to entry u and x[u]
        to entry v, so integer inputs below 2**53 sum exactly."""
        x = np.asarray(x)
        u, v = self.edges[:, 0], self.edges[:, 1]
        return np.bincount(u, x[v], self.node_count) \
            + np.bincount(v, x[u], self.node_count)


def build_graph(edge_pairs: np.ndarray | Iterable[Sequence[int]]) -> Graph:
    """Validate and canonicalize outside input: a ``(k, 2)`` array or
    iterable of pairs.

    Node ids may be arbitrary non-negative integers; they are compacted to
    0..n-1 in ascending id order and the original ids retained for output,
    so every node touches an edge.  A negative id, a self-loop or a
    repeated edge (either orientation) is rejected, naming the earliest bad
    row.  Edge keys ``lo * n + hi`` use compacted ids, so they cannot
    overflow.  Each row's key is built once (:func:`_edge_keys`), and keys
    already strictly increasing, as in a file nepoll wrote, are not sorted.
    """
    raw = np.asarray(edge_pairs if isinstance(edge_pairs, np.ndarray)
                     else list(edge_pairs), dtype=np.int64).reshape(-1, 2)
    if not len(raw):
        raise DataError("a graph needs at least one edge")
    ids, edge_keys, bad, keys = _edge_keys(raw)
    if len(edge_keys) < len(keys):
        bad |= ~_first_claims(keys[:, None])
    return _checked_graph(raw, ids, edge_keys, bad)


def _edge_keys(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray]:
    """``(ids, edge_keys, loops, keys)`` of a non-empty ``(k, 2)`` int64
    array of edge rows: the sorted distinct ids, the distinct keys ``lo *
    n + hi`` over the ids' ranks ascending, the mask of self-loop rows and
    each row's key (``edge_keys`` itself when the rows' keys are strictly
    increasing already).  A row repeats an earlier one iff ``edge_keys``
    is shorter than ``keys``.

    The rows are ranked as one flat array, and each key is built in one
    array of ``k`` as ``min * (n - 1) + lo + hi``: ids 0..n-1 take no
    other edge-sized array.
    """
    ids, rank = _rank_ids(raw.ravel())
    u, v = rank[0::2], rank[1::2]
    loops = u == v
    keys = np.minimum(u, v)
    keys *= len(ids) - 1
    keys += u
    keys += v
    if (keys[1:] > keys[:-1]).all():  # sorted and distinct already
        return ids, keys, loops, keys
    return ids, _sorted_unique(keys.copy()), loops, keys


def _checked_graph(raw: np.ndarray, ids: np.ndarray, edge_keys: np.ndarray,
                   bad: np.ndarray, where=lambda row: "",
                   error: DataError | None = None) -> Graph:
    """The graph of ``edge_keys`` over ``ids``, unless a row of ``raw``
    holds a negative id or is marked ``bad`` (a self-loop, or a repeat of
    an earlier row): then a :class:`DataError` names the earliest such
    row, after the prefix ``where(row)``.  Else ``error``, a fault found
    after the last row of ``raw``, is raised if given."""
    if ids[0] < 0:
        bad = bad | (raw[:, 0] < 0) | (raw[:, 1] < 0)
    if bad.any():
        row = int(np.argmax(bad))
        u, v = (int(x) for x in raw[row])
        raise DataError(where(row) + (
            f"negative node id in edge ({u}, {v})" if u < 0 or v < 0
            else f"self-loop at node {u}" if u == v
            else f"duplicate edge ({min(u, v)}, {max(u, v)})"))
    if error is not None:
        raise error
    return Graph(len(ids), edge_keys, ids)


# The most rows a writer formats, or arcs a BFS block gathers, at once: a
# block of 2**14 takes about 1 MB of transient arrays.  The 507k edges of a
# 200k-node graph took about 32 MB in one block, and BFS blocks of 2**16
# raised the round trip's peak RSS by 3 MB.
_BLOCK = 2 ** 14


def _rank_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, rank)`` of a non-empty 1-D int64 array: its sorted distinct
    values and each value's index among them, as ``np.unique(values,
    return_inverse=True)`` gives them.  Values that are exactly 0..n-1, as
    in a file nepoll wrote, are their own ranks: ``rank`` is then
    ``values`` itself.  Any other values are sorted."""
    top = int(values.max())
    if values.min() == 0 and top < len(values):
        present = np.zeros(top + 1, dtype=bool)
        present[values] = True
        if present.all():
            return np.arange(top + 1), values
    return np.unique(values, return_inverse=True)


def _first_claims(claims: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``claims`` that are the earliest row to hold
    each of their values; the rows it keeps are pairwise disjoint.  With
    one column, its negation marks the rows whose value occurred in an
    earlier row."""
    width = claims.shape[1]
    flat = claims.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    new = np.empty(len(flat), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    # each value's earliest position: the minimum over its run, whatever
    # order the unstable sort left the run in
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    owner = first[np.cumsum(new) - 1] // width
    kept = np.ones(claims.shape[0], dtype=bool)
    kept[order[owner != order // width] // width] = False
    return kept


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array, by one sort in place
    of ``values`` (plain ``np.unique`` hashes first in numpy 2.4: ~50x
    slower on 10^6 values)."""
    values.sort()
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def degree_product_sum(g: Graph) -> int:
    """The sum over edges of d(u) d(v), gathered ``_BLOCK`` edges at a time."""
    d, lo, hi = g.degrees, g.edges[:, 0], g.edges[:, 1]
    return sum(int(np.dot(d[lo[s:s + _BLOCK]], d[hi[s:s + _BLOCK]]))
               for s in range(0, g.edge_count, _BLOCK))


def _adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, higher, lower)``, the adjacency of ``g`` in two halves of
    compressed sparse rows: node v's higher neighbors are
    ``higher[starts[0, v]:starts[0, v + 1]]`` and its lower ones
    ``lower[starts[1, v]:starts[1, v + 1]]``, each ascending.  ``higher``
    is ``g.edges[:, 1]`` itself, contiguous per node as the edges sort by
    (lo, hi); ``lower`` is the one sort of the keys ``hi * n + lo``,
    reduced to ``lo`` in place."""
    n, lo, hi = g.node_count, g.edges[:, 0], g.edges[:, 1]
    lower = hi * n
    lower += lo
    lower.sort()
    np.remainder(lower, n, out=lower)
    starts = np.zeros((2, n + 1), dtype=np.int64)
    for row, ends in zip(starts, (lo, hi)):
        np.cumsum(np.bincount(ends, minlength=n), out=row[1:])
    return starts, hi, lower


def graph_flags(g: Graph) -> GraphFlags:
    """Compute (and cache on the graph) connectivity and bipartiteness.

    Level-synchronous BFS from node 0, then from the lowest unvisited node
    of each further component, over the adjacency :func:`_adjacency`
    builds for this call and releases before the bipartite check.  Edges
    join depths at most one apart, so the graph is bipartite iff no edge
    joins two depths of equal parity.
    """
    if g._flags is not None:
        return g._flags
    adjacency = _adjacency(g)
    depth = np.full(g.node_count, -1, dtype=np.int64)
    _bfs_depths(*adjacency, 0, depth)
    unreached = np.flatnonzero(depth < 0)
    for root in unreached.tolist():
        if depth[root] < 0:
            _bfs_depths(*adjacency, root, depth)
    del adjacency
    odd = np.bitwise_and(depth, 1, out=depth).astype(bool)
    g._flags = GraphFlags(connected=len(unreached) == 0,
                          bipartite=bool((odd[g.edges[:, 0]]
                                          != odd[g.edges[:, 1]]).all()))
    return g._flags


def _bfs_depths(starts: np.ndarray, higher: np.ndarray, lower: np.ndarray,
                root: int, depth: np.ndarray) -> None:
    """Write the BFS depth from ``root`` of every node in its component,
    over the adjacency ``(starts, higher, lower)`` of :func:`_adjacency`.

    The frontier is a list of parts, each expanded on its own: its higher
    ranges, then its lower ones, in blocks of consecutive ranges whose
    arcs number at most ``_BLOCK``, or of one range with more.  A block
    marks the nodes it reaches first, so later blocks skip them, and its
    marked nodes, sorted and distinct, are one part of the next frontier.
    So the transient arrays grow with the block, not with the level, and
    depths do not depend on the order of the parts.
    """
    depth[root] = 0
    frontier, level = [np.array([root])], 0
    while frontier:
        level += 1
        found = []
        for nodes in frontier:
            # each range's first position, less the part's arcs before it:
            # adding a range of arc numbers gives every arc position
            firsts = starts.take(nodes, 1).ravel()
            counts = starts.take(nodes + 1, 1).ravel() - firsts
            ends = np.add.accumulate(counts)
            firsts += counts - ends
            split, total = int(ends[len(nodes) - 1]), int(ends[-1])
            start = done = 0
            while done < total:
                stop = len(counts)
                if total - done > _BLOCK:
                    stop = max(int(np.searchsorted(ends, done + _BLOCK,
                                                   "right")), start + 1)
                end = int(ends[stop - 1])
                offsets = firsts[start:stop].repeat(counts[start:stop])
                offsets += np.arange(done, end)
                cut = min(max(split - done, 0), end - done)
                reached = np.concatenate((higher[offsets[:cut]],
                                          lower[offsets[cut:]]))
                reached = reached[depth[reached] < 0]
                if len(reached) > 1:
                    reached = _sorted_unique(reached)
                if len(reached):
                    depth[reached] = level
                    found.append(reached)
                start, done = stop, end
        frontier = found


class LabeledGraph:
    """A graph plus one binary label per node, with cached poll responses.

    ``responses[v]`` is the fraction of v's neighbors carrying label 1 --
    the answer node v gives to the neighborhood-expectation poll.  It is
    computed on first read and cached: a labeled graph that is only
    generated, written or read costs no adjacency product.
    """

    __slots__ = ("graph", "labels", "_responses")

    def __init__(self, graph: Graph, labels):
        labels = np.asarray(labels)
        if labels.shape != (graph.node_count,):
            raise DataError(
                f"label vector length {labels.shape} != node count "
                f"{graph.node_count}")
        # checked before the int64 cast, which would truncate 0.5 to 0
        if not ((labels == 0) | (labels == 1)).all():
            raise DataError("labels must be 0 or 1")
        self.graph = graph
        self.labels = labels.astype(np.int64, copy=False)
        self._responses: np.ndarray | None = None

    @property
    def responses(self) -> np.ndarray:
        if self._responses is None:
            g = self.graph
            self._responses = g.adjacency_matvec(self.labels) / g.degrees
        return self._responses

    @property
    def true_fraction(self) -> float:
        """Fraction of nodes labeled 1 (the quantity every poll estimates)."""
        return float(self.labels.mean())
