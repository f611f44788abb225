"""Immutable undirected simple graphs with binary node labels.

Graphs are stored in compressed sparse adjacency form (one sorted neighbor
array plus per-node offsets).  That makes uniform neighbor sampling an O(1)
index lookup and keeps the representation canonical: any edge list describing
the same graph produces bit-identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (DataError, DuplicateEdgeError, IsolatedNodeError,
                     SelfLoopError)


@dataclass(frozen=True)
class GraphFlags:
    """Connectivity and bipartiteness, each decided by a full traversal."""

    connected: bool
    bipartite: bool


class Graph:
    """Undirected simple graph over compact node ids 0..n-1.

    Instances are created through :func:`build_graph` and never mutated
    afterwards, so they are safe to share across threads and worker
    processes.  ``edge_end_count`` is the number of edge endpoints
    (twice the edge count), the normalizer of all degree-weighted laws.
    """

    __slots__ = ("node_count", "edges", "indptr", "neighbors", "degrees",
                 "edge_end_count", "min_degree", "original_ids", "_flags")

    def __init__(self, node_count: int, edges: np.ndarray, indptr: np.ndarray,
                 neighbors: np.ndarray, degrees: np.ndarray,
                 original_ids: np.ndarray):
        self.node_count = int(node_count)
        self.edges = edges
        self.indptr = indptr
        self.neighbors = neighbors
        self.degrees = degrees
        self.edge_end_count = int(degrees.sum())
        self.min_degree = int(degrees.min())
        self.original_ids = original_ids
        self._flags: GraphFlags | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.indptr[v]:self.indptr[v + 1]]

    def adjacency_matvec(self, x: np.ndarray) -> np.ndarray:
        """Return A @ x using the adjacency lists (no dense matrix)."""
        return np.add.reduceat(np.asarray(x, dtype=float)[self.neighbors],
                               self.indptr[:-1])

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, edges={self.edge_count})"


def build_graph(edge_pairs: np.ndarray | Iterable[Sequence[int]],
                node_count: int | None = None) -> Graph:
    """Validate and canonicalize a ``(k, 2)`` array or iterable of pairs.

    Node ids may be arbitrary non-negative integers; they are compacted to
    0..n-1 in ascending id order and the original ids retained for output.
    Passing ``node_count`` pins the id space to 0..node_count-1 instead
    (generators use this); an id in that range that touches no edge is
    rejected as isolated, because the neighborhood poll response is
    undefined for degree-0 nodes.  A negative id, a self-loop or a repeated
    edge (either orientation) is rejected, naming the earliest bad row.
    Edge keys ``lo * n + hi`` use compacted ids, so they cannot overflow.
    """
    if not isinstance(edge_pairs, np.ndarray):
        edge_pairs = list(edge_pairs)
    raw = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    if not len(raw):
        raise DataError("a graph needs at least one edge")
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    in_range = node_count is not None and lo.min() >= 0 \
        and hi.max() < node_count
    if in_range:
        n = int(node_count)
        original_ids = np.arange(n, dtype=np.int64)
    else:
        original_ids, compact = np.unique(np.concatenate([lo, hi]),
                                          return_inverse=True)
        n = len(original_ids)
        lo, hi = compact[:len(raw)], compact[len(raw):]
    keys = lo * n + hi
    edge_keys = np.sort(keys)
    bad = (raw < 0).any(axis=1) | (lo == hi)
    if bad.any() or (edge_keys[1:] == edge_keys[:-1]).any():
        u, v = (int(x) for x in raw[np.argmax(bad | _repeated_rows(keys))])
        if u < 0 or v < 0:
            raise DataError(f"negative node id in edge ({u}, {v})")
        if u == v:
            raise SelfLoopError(u)
        raise DuplicateEdgeError(min(u, v), max(u, v))
    if node_count is not None and not in_range:
        raise DataError(f"edge references node {int(raw.max())} "
                        f"outside 0..{node_count - 1}")

    degrees = np.bincount(np.concatenate([lo, hi]), minlength=n)
    if degrees.min() == 0:
        raise IsolatedNodeError(int(np.argmin(degrees)))
    edges = np.stack(np.divmod(edge_keys, n), axis=1)
    # arcs keyed src * n + dst, both directions of every edge
    neighbors = np.sort(np.concatenate([keys, hi * n + lo])) % n
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    return Graph(n, edges, indptr, neighbors, degrees, original_ids)


def _repeated_rows(keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key already occurred in an earlier row."""
    repeated = np.ones(len(keys), dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array, by one sort (plain
    ``np.unique`` hashes first in numpy 2.4: ~50x slower on 10^6 values)."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def graph_flags(g: Graph) -> GraphFlags:
    """Compute (and cache on the graph) connectivity and bipartiteness.

    Level-synchronous BFS from node 0, then from the lowest unvisited node
    of each further component.  Edges join depths at most one apart, so the
    graph is bipartite iff no edge joins two depths of equal parity.
    """
    if g._flags is not None:
        return g._flags
    depth = np.full(g.node_count, -1, dtype=np.int64)
    _bfs_depths(g, 0, depth)
    unreached = np.flatnonzero(depth < 0)
    for root in unreached.tolist():
        if depth[root] < 0:
            _bfs_depths(g, root, depth)
    parity = depth[g.edges] % 2
    flags = GraphFlags(connected=len(unreached) == 0,
                       bipartite=bool((parity[:, 0] != parity[:, 1]).all()))
    g._flags = flags
    return flags


def _bfs_depths(g: Graph, root: int, depth: np.ndarray) -> None:
    """Write the BFS depth from ``root`` of every node in its component."""
    frontier = np.array([root])
    depth[root] = 0
    level = 0
    while len(frontier):
        level += 1
        counts = g.degrees[frontier]
        ends = np.cumsum(counts)
        # neighbor-array positions of every arc leaving the frontier
        offsets = np.repeat(g.indptr[frontier] - ends + counts, counts)
        reached = g.neighbors[offsets + np.arange(ends[-1])]
        frontier = _sorted_unique(reached[depth[reached] < 0])
        depth[frontier] = level


class LabeledGraph:
    """A graph plus one binary label per node, with cached poll responses.

    ``responses[v]`` is the fraction of v's neighbors carrying label 1 --
    the answer node v gives to the neighborhood-expectation poll.
    """

    __slots__ = ("graph", "labels", "responses")

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
        self.responses = graph.adjacency_matvec(self.labels) / graph.degrees

    @property
    def true_fraction(self) -> float:
        """Fraction of nodes labeled 1 (the quantity every poll estimates)."""
        return float(self.labels.mean())

    def __repr__(self) -> str:
        return (f"LabeledGraph(n={self.graph.node_count}, "
                f"true_fraction={self.true_fraction:.4f})")
