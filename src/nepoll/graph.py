"""Immutable undirected simple graphs with binary node labels.

A graph is its sorted edge list, stored column-major so that each endpoint
column is contiguous, over which every adjacency product runs.  Only the
search of :func:`graph_flags` reads the compressed sparse adjacency form
(sorted neighbors, per-node offsets); :func:`_adjacency` builds it there,
by one sort of the arcs, and no graph keeps it.  Every graph is made by
one constructor, ``Graph(node_count, edge_keys, original_ids)``, from its
sorted, distinct edge keys ``lo * node_count + hi``.  Outside input
reaches it through :func:`build_graph`, which validates and compacts the
ids, or through the edge reader, which takes the same steps; the
generators and the rewiring hold such keys already and construct the
graph once.  Any edge list describing the same graph produces
bit-identical arrays.
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
    ids, keys, edge_keys, bad = _edge_keys(raw)
    if len(edge_keys) < len(keys):
        bad |= ~_first_claims(keys[:, None])
    return _checked_graph(raw, ids, edge_keys, bad)


def _edge_keys(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray]:
    """``(ids, keys, edge_keys, loops)`` of a non-empty ``(k, 2)`` int64
    array of edge rows: the sorted distinct ids, each row's key ``lo * n +
    hi`` over the ids' ranks, the distinct keys ascending (``keys`` itself
    when it is strictly increasing already) and the mask of self-loop rows.
    A row repeats an earlier one iff ``edge_keys`` is shorter than
    ``keys``.

    The lower ends, then the higher ends, fill one ``(2k,)`` buffer that is
    ranked once; the keys are built in the first half of the ranks.
    """
    k = len(raw)
    ends = np.empty(2 * k, dtype=np.int64)
    np.minimum(raw[:, 0], raw[:, 1], out=ends[:k])
    np.maximum(raw[:, 0], raw[:, 1], out=ends[k:])
    loops = ends[:k] == ends[k:]
    ids, rank = _rank_ids(ends)
    keys = rank[:k]
    keys *= len(ids)
    keys += rank[k:]
    if (keys[1:] > keys[:-1]).all():  # sorted and distinct already
        return ids, keys, keys, loops
    return ids, keys, _sorted_unique(keys.copy()), loops


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


# The most rows a writer formats, or arcs a BFS level gathers, at once: a
# block of 2**16 takes a few MB of transient arrays, where the 507k edges of
# a 200k-node graph took about 32 MB in one block.
_BLOCK = 2 ** 16


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
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def degree_product_sum(g: Graph) -> int:
    """The sum over edges of d(u) d(v), gathered ``_BLOCK`` edges at a time."""
    d, lo, hi = g.degrees, g.edges[:, 0], g.edges[:, 1]
    return sum(int(np.dot(d[lo[s:s + _BLOCK]], d[hi[s:s + _BLOCK]]))
               for s in range(0, g.edge_count, _BLOCK))


def _adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, neighbors)``, the adjacency of ``g`` in compressed sparse
    rows: ``neighbors[indptr[v]:indptr[v + 1]]`` are v's, ascending."""
    n, m = g.node_count, g.edge_count
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    # arcs keyed src * n + dst, both directions of every edge, in one
    # array that is sorted and reduced to dst in place
    arcs = np.empty(2 * m, dtype=np.int64)
    for out, src, dst in ((arcs[:m], lo, hi), (arcs[m:], hi, lo)):
        np.multiply(src, n, out=out)
        out += dst
    arcs.sort()
    np.remainder(arcs, n, out=arcs)
    return np.concatenate([[0], np.cumsum(g.degrees)]), arcs


def graph_flags(g: Graph) -> GraphFlags:
    """Compute (and cache on the graph) connectivity and bipartiteness.

    Level-synchronous BFS from node 0, then from the lowest unvisited node
    of each further component, over the adjacency :func:`_adjacency`
    builds for this call.  Edges join depths at most one apart, so the
    graph is bipartite iff no edge joins two depths of equal parity.
    """
    if g._flags is not None:
        return g._flags
    indptr, neighbors = _adjacency(g)
    depth = np.full(g.node_count, -1, dtype=np.int64)
    _bfs_depths(g, indptr, neighbors, 0, depth)
    unreached = np.flatnonzero(depth < 0)
    for root in unreached.tolist():
        if depth[root] < 0:
            _bfs_depths(g, indptr, neighbors, root, depth)
    odd = (depth & 1).astype(bool)
    g._flags = GraphFlags(connected=len(unreached) == 0,
                          bipartite=bool((odd[g.edges[:, 0]]
                                          != odd[g.edges[:, 1]]).all()))
    return g._flags


def _bfs_depths(g: Graph, indptr: np.ndarray, neighbors: np.ndarray,
                root: int, depth: np.ndarray) -> None:
    """Write the BFS depth from ``root`` of every node in its component.

    Each level expands its frontier in blocks of consecutive frontier nodes
    whose arcs number at most ``_BLOCK``, or of one node with more: the
    level's transient arrays grow with the block, not with the level.  A
    block marks the nodes it reaches first, so later blocks of the level
    skip them, and the next frontier is the level's marked nodes, sorted
    and distinct.
    """
    frontier = np.array([root])
    depth[root] = 0
    level = 0
    while len(frontier):
        level += 1
        counts = g.degrees[frontier]
        ends = np.cumsum(counts)
        # each node's first neighbor-array position, less the level's arcs
        # before it: adding a range of arc numbers gives every arc position
        firsts = indptr[frontier] - ends + counts
        found, start, done = [], 0, 0
        while start < len(frontier):
            stop = len(frontier)
            if ends[-1] - done > _BLOCK:
                stop = max(int(np.searchsorted(ends, done + _BLOCK, "right")),
                           start + 1)
            end = int(ends[stop - 1])
            offsets = np.repeat(firsts[start:stop], counts[start:stop])
            offsets += np.arange(done, end)
            reached = neighbors[offsets]
            reached = reached[depth[reached] < 0]
            depth[reached] = level
            found.append(reached)
            start, done = stop, end
        frontier = _sorted_unique(found[0] if len(found) == 1
                                  else np.concatenate(found))


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
        if not np.isin(labels, (0, 1)).all():
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
