"""Synthetic graph generation and controlled modification.

Two generators (truncated power-law configuration model, Erdos-Renyi) plus
two in-place modifiers: degree-preserving edge rewiring that steers the
degree-degree correlation toward a target, and iid label assignment followed
by label swapping that steers the degree-label correlation toward a target.

Each operation is a stochastic process driven by one stream, so
(spec, seed) reproduces identical output.  The modifiers draw proposals in
chunks of ``_PROPOSAL_CHUNK``, or of the most proposals a chunk can keep
when that is fewer (``m // 2`` for rewiring, the smaller label class for
labels), and decide a chunk by repeating three steps from its first
proposal; with one proposal per chunk this is the one-at-a-time process.

1. One numpy pass over the live state screens the proposals from the
   current position on.  A proposal is local when the sequential rule
   accepts it on that state: it is simple, adds no edge key already
   present and strictly shrinks the distance to the target.  Each local
   proposal that is the earliest local one to hold all of its claims (two
   edge indices and two added edge keys, or two pool positions for labels)
   is kept.
2. The kept proposals, pairwise disjoint, are accepted in bulk and in order
   up to the cut: the first whose running sum does not strictly shrink the
   distance to the target, reaches the band or crosses the target.  The
   other proposals before the cut are rejected.
3. The cut alone is accepted iff it shrinks the distance on the state the
   bulk leaves.  An accept that reaches the band ends the chunk; otherwise
   step 1 screens again from the position after the cut.

The rewiring holds the edge keys as a set of two sorted parts: the
original keys, never rewritten, with a mask of the edges that still hold
theirs, and the keys accepted since.  So a chunk's accepts rewrite only
the keys accepted so far, not all m of them, and the rewired graph is
built once, from the merge of the two parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import assortativity_curve, degree_label_curve
from .errors import DataError, TargetUnreachableError, require_count
from .graph import (Graph, LabeledGraph, _first_claims, _sorted_unique,
                    degree_product_sum)
from .sampling import stream

_MAX_GENERATION_RETRIES = 100
_PROPOSAL_CHUNK = 8192
_STALL_LIMIT = 200_000  # consecutive rejected proposals before giving up
# The most nodes a generator takes: its int64 edge keys lo * n + hi reach
# n**2 - 1 for a self-loop
_MAX_NODES = math.isqrt(2 ** 63)


@dataclass(frozen=True)
class ConfigModelSpec:
    """Configuration model with iid truncated power-law degrees.

    Degrees follow p(k) proportional to k^-alpha on [k_min, k_max]
    (k_max defaults to n-1).  Half-edges are matched uniformly; self-loops
    and duplicate matches are erased afterwards.
    """

    node_count: int
    power_law_exponent: float
    k_min: int = 1
    k_max: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, "node_count", "k_min", "k_max", "seed")
        n, k_max = self.node_count, self.resolved_k_max()
        if not 2 <= n <= _MAX_NODES:
            raise DataError(f"need 2 to {_MAX_NODES} nodes, got {n}")
        if self.k_min < 1:
            raise DataError("k_min must be >= 1")
        if k_max < self.k_min:
            raise DataError(f"k_max {k_max} < k_min {self.k_min}")
        if k_max > n - 1:
            raise DataError(f"k_max {k_max} > n-1 = {n - 1}")
        if not self.power_law_exponent > 1:
            raise DataError("power-law exponent must be > 1")

    def resolved_k_max(self) -> int:
        return self.node_count - 1 if self.k_max is None else self.k_max


@dataclass(frozen=True)
class ErdosRenyiSpec:
    node_count: int
    edge_probability: float
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, "node_count", "seed")
        n = self.node_count
        if not 2 <= n <= _MAX_NODES:
            raise DataError(f"need 2 to {_MAX_NODES} nodes, got {n}")
        if not 0.0 < self.edge_probability <= 1.0:
            raise DataError("edge probability must be in (0, 1]")


def _check_counts(spec, *names: str) -> None:
    """Each named field of ``spec`` that is set is a count >= 0."""
    for name in names:
        if getattr(spec, name) is not None:
            require_count(name, getattr(spec, name), 0)


def _check_goal(target: float | None, tolerance: float) -> None:
    """A correlation target lies in [-1, 1], a tolerance is > 0; NaN fails."""
    if target is not None and not -1.0 <= target <= 1.0:
        raise DataError(f"target must lie in [-1, 1], got {target!r}")
    if not tolerance > 0:
        raise DataError(f"tolerance must be > 0, got {tolerance!r}")


@dataclass(frozen=True)
class RewireTarget:
    target: float
    tolerance: float = 0.02
    max_iterations: int = 2_000_000

    def __post_init__(self):
        _check_goal(self.target, self.tolerance)
        _check_counts(self, "max_iterations")


@dataclass(frozen=True)
class LabelTarget:
    """Bernoulli(base_probability) labels, optionally swapped until the
    degree-label correlation reaches ``target``."""

    base_probability: float
    target: float | None = None
    tolerance: float = 0.02
    max_iterations: int = 2_000_000

    def __post_init__(self):
        if not 0.0 < self.base_probability < 1.0:
            raise DataError("base probability must lie strictly in (0, 1)")
        _check_goal(self.target, self.tolerance)
        _check_counts(self, "max_iterations")


def _power_law_pmf(alpha: float, k_min: int,
                   k_max: int) -> tuple[np.ndarray, np.ndarray]:
    ks = np.arange(k_min, k_max + 1, dtype=np.int64)
    if not math.isfinite(alpha):
        pmf = np.zeros(len(ks))
        pmf[0] = 1.0
        return ks, pmf
    logw = -alpha * np.log(ks.astype(float))
    w = np.exp(logw - logw.max())
    return ks, w / w.sum()


def configuration_model(spec: ConfigModelSpec) -> tuple[Graph, int]:
    """Generate a simple graph with the prescribed degree law.

    Returns ``(graph, erased_stubs)`` where ``erased_stubs`` counts the
    half-edges lost to self-loop and duplicate-match erasure.  An odd degree
    sum is repaired by incrementing one uniformly chosen node's degree.
    Matchings that leave some node with no surviving edge are retried with
    a fresh stream.

    The stub array is shuffled in place, which draws what
    ``gen.permutation`` draws for its copy, and consecutive stubs are
    matched.  The keys ``lo * n + hi`` are built in place, in one array of
    half the stubs' size, with the higher ends written over the matches'
    first stubs; one sort in place and one compress drop the self-loops
    and repeated matches.
    """
    n = spec.node_count
    ks, pmf = _power_law_pmf(spec.power_law_exponent, spec.k_min,
                             spec.resolved_k_max())
    for attempt in range(_MAX_GENERATION_RETRIES):
        gen = stream(spec.seed, attempt)
        degrees = gen.choice(ks, size=n, p=pmf)
        if degrees.sum() % 2 == 1:
            degrees[gen.integers(n)] += 1
        stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
        gen.shuffle(stubs)  # the draws gen.permutation makes on a copy
        u, v = stubs[0::2], stubs[1::2]
        keys = np.minimum(u, v)
        np.maximum(u, v, out=u)
        loops = keys == u
        keys *= n
        keys += u
        del stubs, u, v  # frees 8 B per stub before the sort and graph
        # self-loops as -1, which sorts first: one compress drops them
        # with the duplicate matches
        keys[loops] = -1
        keys = _sorted_unique(keys)
        g = Graph(n, keys[1:] if keys[0] < 0 else keys,
                  np.arange(n, dtype=np.int64))
        if g.min_degree == 0:
            continue
        return g, int(degrees.sum()) - g.edge_end_count
    raise DataError(
        f"configuration model left isolated nodes in "
        f"{_MAX_GENERATION_RETRIES} attempts")


def erdos_renyi(spec: ErdosRenyiSpec) -> Graph:
    """G(n, p): each unordered pair is an edge independently with
    probability p.  Draws with isolated nodes are retried.

    The pairs (u, v), u < v, are indexed in row order, from 0 to
    N - 1 = n(n - 1)/2 - 1, and the gaps between the indices of
    consecutive edges are drawn as Geometric(p) (Batagelj & Brandes,
    Phys. Rev. E 71, 036113, 2005), so a draw costs O(n + m), not one
    uniform per pair.
    """
    n = spec.node_count
    p = spec.edge_probability
    for attempt in range(_MAX_GENERATION_RETRIES):
        gen = stream(spec.seed, attempt)
        keys = _pair_keys(_edge_indices(gen, p, n * (n - 1) // 2), n)
        g = Graph(n, keys, np.arange(n, dtype=np.int64))
        if g.min_degree == 0:
            continue
        return g
    raise DataError(
        f"G(n={n}, p={p}) produced isolated nodes in "
        f"{_MAX_GENERATION_RETRIES} attempts")


def _edge_indices(gen: np.random.Generator, p: float,
                  pairs: int) -> np.ndarray:
    """The ascending indices in [0, pairs) of the pairs that are edges of
    G(n, p): the gap to each next one is Geometric(p).  The gaps are
    drawn in blocks of the expected number of edges left, plus three
    standard deviations, until their running sum passes the last pair."""
    blocks, last = [], -1
    while True:
        left = p * (pairs - 1 - last)
        gaps = gen.geometric(p, size=int(left + 3 * math.sqrt(left)) + 1)
        # numpy returns 2**63 - 1 for a tiny p; clipped, a sum that passes
        # the last pair is at most 2 * pairs, inside int64.  Sums after it
        # may wrap, so the first one past the end is found by argmax
        np.minimum(gaps, pairs + 1, out=gaps)
        index = np.cumsum(gaps, out=gaps)
        index += last
        past = index >= pairs
        if past.any():
            blocks.append(index[:int(np.argmax(past))])
            return np.concatenate(blocks)
        blocks.append(index)
        last = int(index[-1])


def _pair_keys(index: np.ndarray, n: int) -> np.ndarray:
    """The keys u * n + v of the pairs at the ``index``es, in place: row u
    starts at S(u) = u(2n - u - 1)/2, and t lies in row u = max{u : S(u)
    <= t}, at v = t - S(u) + u + 1.  Ascending indices give ascending
    keys."""
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(row_start, index, "right") - 1
    index -= row_start[u]
    index += u * (n + 1) + 1
    return index


def _in_sorted(values: np.ndarray,
               sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each of the ascending ``values`` in ``sorted_values``
    (not empty), clamped to its last, and whether the value is there."""
    at = np.minimum(np.searchsorted(sorted_values, values),
                    len(sorted_values) - 1)
    return at, sorted_values[at] == values


class _SwapProcess:
    """Steers ``corr(s)`` toward ``goal``; each accept moves the integer sum
    ``s`` by its step.  ``run`` decides chunk after chunk; ``decide`` repeats
    the module's three steps on one through ``load`` (keep a chunk's
    draws), ``screen`` (positions, steps, claims and rows of the local
    proposals from a position on) and ``apply`` (accept kept proposals).  A
    chunk keeps proposals with disjoint claims, at most ``cap``, so no chunk
    is drawn larger."""

    def __init__(self, s: int, corr, goal: float, tol: float, cap: int):
        self.s, self.corr, self.goal, self.tol = s, corr, goal, tol
        self.cap = cap
        self.rejections = 0  # consecutive, since the last accept

    @property
    def current(self) -> float:
        return self.corr(self.s)

    def shrinks(self, step: np.ndarray) -> np.ndarray:
        """Whether each step strictly shrinks the distance to the goal."""
        return np.abs(self.corr(self.s + step) - self.goal) \
            < abs(self.current - self.goal)

    def run(self, draw, budget: int, what: str, result):
        """Decide chunks of proposals ``draw(size)`` until the correlation
        lies in the band, and return ``result()``.  When ``budget``
        proposals are spent or acceptance stalls, raise
        :class:`TargetUnreachableError` carrying ``result()``, the best
        effort, and naming the ``what`` target."""
        proposals = 0
        while abs(self.current - self.goal) > self.tol:
            if proposals >= budget or self.rejections >= _STALL_LIMIT:
                raise TargetUnreachableError(
                    f"{what} target {self.goal} not reached after "
                    f"{proposals} proposals", achieved=self.current,
                    result=result())
            size = min(_PROPOSAL_CHUNK, self.cap, budget - proposals)
            self.decide(draw(size))
            proposals += size
        return result()

    def decide(self, draws) -> None:
        """Decide one chunk; an accept that reaches the band ends it."""
        size, start, last = self.load(draws), 0, -1
        while start < size:
            pos, step, claims, rows = self.screen(start)
            if not len(pos):
                break
            kept = np.flatnonzero(_first_claims(claims))
            pos, step = pos[kept], step[kept]
            after = self.s + np.cumsum(step)
            new = self.corr(after)
            gap = np.abs(new - self.goal)
            shrinks = gap < np.abs(self.corr(after - step) - self.goal)
            fails = ~shrinks | (gap <= self.tol) \
                | ((new < self.goal) != (self.current < self.goal))
            cut = int(fails.argmax()) if fails.any() else len(pos)
            accepts = cut + (cut < len(pos) and bool(shrinks[cut]))
            if accepts:
                self.apply(*(row[kept[:accepts]] for row in rows))
                self.s += int(step[:accepts].sum())
                last = int(pos[accepts - 1])
            if cut == len(pos) or accepts > cut and gap[cut] <= self.tol:
                break
            start = int(pos[cut]) + 1
        self.rejections = size - 1 - last if last >= 0 \
            else self.rejections + size


class _EdgeSwaps(_SwapProcess):
    """Edge ``e`` as the key ``u * n + v`` (``u < v``) in ``ekey[e]``.

    The keys the edges hold form a set of two sorted parts, so an accept
    rewrites only the keys accepted so far, not all ``m``.  ``base``, the
    original keys, is never rewritten: edge ``e``'s key sits at position
    ``e``, and stays in the set while ``alive[e]``, i.e. while edge ``e``
    still holds it.  ``born`` holds, ascending, the keys accepts added that
    an edge still holds.  So a key is held iff it is a live base key or in
    ``born``, and ``born`` holds no live base key.
    """

    def __init__(self, g: Graph, target: RewireTarget, corr):
        m, self.n = g.edge_count, g.node_count
        self.deg = g.degrees
        self.ekey = g.edges[:, 0] * self.n
        self.ekey += g.edges[:, 1]
        self.base = self.ekey.copy()  # ascending, as g.edges is
        self.alive = np.ones(m, dtype=bool)
        self.born = np.zeros(0, dtype=np.int64)
        super().__init__(degree_product_sum(g), corr,
                         target.target, target.tolerance, m // 2)

    def keys(self) -> np.ndarray:
        """The held keys, ascending: the rewired graph's ``edge_keys``."""
        live = np.count_nonzero(self.alive)
        keys = np.empty(live + len(self.born), dtype=np.int64)
        np.compress(self.alive, self.base, out=keys[:live])
        keys[live:] = self.born
        keys.sort(kind="stable")  # of two ascending runs: one merge
        return keys

    def graph(self, original_ids: np.ndarray) -> Graph:
        """The rewired graph.  It ends the process: the edge state is
        released before the graph is built."""
        keys = self.keys()
        del self.ekey, self.base, self.alive, self.born
        return Graph(self.n, keys, original_ids)

    def held(self, keys: np.ndarray) -> np.ndarray:
        """Whether an edge holds each of ``keys``; the query is searched in
        ascending order, which keeps the binary searches in cache."""
        flat = keys.ravel()
        order = np.argsort(flat)
        ascending = flat[order]
        at, held = _in_sorted(ascending, self.base)
        held &= self.alive[at]
        if len(self.born):
            held |= _in_sorted(ascending, self.born)[1]
        out = np.empty(len(flat), dtype=bool)
        out[order] = held
        return out.reshape(keys.shape)

    def load(self, draws: tuple[np.ndarray, np.ndarray]) -> int:
        self.idx, self.flip = draws
        return len(self.idx)

    def screen(self, start: int):
        """Proposal ``p`` replaces edges ``i, j`` (ends flipped by ``fi``,
        ``fj``), seen as ``(a, b), (c, d)``, with the keys of ``(a, c)``
        and ``(b, d)``."""
        n, deg, ij = self.n, self.deg, self.idx[start:].T
        fi, fj = self.flip[start:].T
        (ui, uj), (vi, vj) = np.divmod(self.ekey[ij], n)
        a, c = np.where(fi, vi, ui), np.where(fj, vj, uj)
        b, d = ui + vi - a, uj + vj - c
        step = (deg[a] - deg[d]) * (deg[c] - deg[b])
        local = (ij[0] != ij[1]) & (a != c) & (b != d) & self.shrinks(step)
        added = np.array([np.minimum(a, c) * n + np.maximum(a, c),
                          np.minimum(b, d) * n + np.maximum(b, d)])
        local[local] = ~self.held(added[:, local]).any(axis=0)
        pos = np.flatnonzero(local)
        rows = (*ij[:, pos], *added[:, pos])
        # edge indices as negatives, so they never meet a key
        claims = np.array([-1 - rows[0], -1 - rows[1], *rows[2:]]).T
        return start + pos, step[pos], claims, rows

    def apply(self, i, j, k1, k2) -> None:
        """Give edges ``i``, ``j`` the keys ``k1``, ``k2``; the edges are
        distinct and no edge holds a new key.  An edge that held its base
        key lets it go by ``alive``, one that held a born key takes it out
        of ``born``, and the new keys join ``born``: the base is never
        searched."""
        e, new = np.r_[i, j], np.r_[k1, k2]
        reborn = e[~self.alive[e]]
        self.alive[e] = False
        born = self.born
        if len(reborn):
            # a deletion is a set of positions: search them in ascending
            # order, which keeps the binary searches in cache
            born = np.delete(born, np.searchsorted(
                born, np.sort(self.ekey[reborn])))
        self.ekey[e] = new
        new = np.sort(new)
        self.born = np.insert(born, np.searchsorted(born, new), new)


def rewire_to_assortativity(g: Graph, target: RewireTarget,
                            gen: np.random.Generator) -> Graph:
    """Degree-preserving edge swaps toward a degree-degree correlation.

    A proposal draws two edges (in random orientation) and replaces
    (a,b),(c,d) with (a,c),(b,d); the sequential rule accepts it iff the
    move is simple (no self-loop, no duplicate) and strictly shrinks the
    distance to the target.  The correlation is
    :func:`~nepoll.analytics.assortativity_curve` at the sum of degree
    products over edges, so :func:`~nepoll.analytics.assortativity` of the
    result is the float the swaps stopped on.  Chunks of proposals are
    decided by the module's three steps.

    Raises :class:`TargetUnreachableError` carrying the best-effort graph,
    and that float as ``achieved``, when the proposal budget runs out or
    acceptance stalls.
    """
    if g.edge_count < 2:
        raise DataError("rewiring needs at least two edges")
    corr = assortativity_curve(g.degrees)
    if corr is None:
        raise DataError("regular graph: degree-degree correlation undefined")

    chain = _EdgeSwaps(g, target, corr)
    if abs(chain.current - target.target) <= target.tolerance:
        return g
    m = g.edge_count
    # swaps keep every degree, so g's compact ids need no remapping
    return chain.run(lambda size: (gen.integers(0, m, size=(size, 2)),
                                   gen.integers(0, 2, size=(size, 2))),
                     target.max_iterations, "assortativity",
                     lambda: chain.graph(g.original_ids))


class _LabelSwaps(_SwapProcess):
    """The 0-labeled nodes in ``pool[:zeros]`` and the 1-labeled ones
    after them; a swap exchanges the nodes at one position of each part."""

    def __init__(self, deg: np.ndarray, labels: np.ndarray, corr,
                 target: LabelTarget):
        self.deg = deg
        self.pool = np.concatenate([np.flatnonzero(labels == 0),
                                    np.flatnonzero(labels)])
        self.zeros = len(labels) - int(labels.sum())
        super().__init__(int(np.dot(deg, labels)), corr, target.target,
                         target.tolerance,
                         min(self.zeros, len(labels) - self.zeros))

    def labels(self) -> np.ndarray:
        labels = np.zeros(len(self.deg), dtype=np.int64)
        labels[self.pool[self.zeros:]] = 1
        return labels

    def load(self, draws: np.ndarray) -> int:
        at0 = (draws[:, 0] * self.zeros).astype(np.int64)
        at1 = (draws[:, 1] * (len(self.pool) - self.zeros)).astype(np.int64)
        self.at = np.stack([at0, self.zeros + at1], axis=1)
        return len(draws)

    def screen(self, start: int):
        v = self.pool[self.at[start:]]
        step = self.deg[v[:, 0]] - self.deg[v[:, 1]]
        pos = np.flatnonzero(self.shrinks(step))
        at = self.at[start + pos]
        return start + pos, step[pos], at, (at,)

    def apply(self, at: np.ndarray) -> None:
        self.pool[at] = self.pool[at[:, ::-1]]


def assign_labels(g: Graph, target: LabelTarget,
                  gen: np.random.Generator) -> LabeledGraph:
    """Draw iid Bernoulli labels, then swap label pairs toward a
    degree-label correlation target.

    A swap exchanges the labels of a random 0-labeled node and a random
    1-labeled node; moving label 1 onto the higher-degree node of the pair
    raises the correlation, onto the lower-degree node lowers it; the
    sequential rule accepts a swap iff it strictly shrinks the distance to
    the target.  Swaps keep the label counts.  The correlation is
    :func:`~nepoll.analytics.degree_label_curve` at the sum of degree times
    label, so :func:`~nepoll.analytics.degree_label_corr` of the result is
    the float the swaps stopped on, ``achieved`` when
    :class:`TargetUnreachableError` carries it.
    Chunks of proposals are decided by the module's three steps.
    """
    n = g.node_count
    labels = (gen.random(n) < target.base_probability).astype(np.int64)
    if target.target is None:
        return LabeledGraph(g, labels)

    ones = int(labels.sum())
    corr = degree_label_curve(g.degrees, ones)
    if corr is None:
        # a regular graph is named first, whatever the labels
        if g.min_degree == g.degrees.max():
            raise DataError(
                "regular graph: degree-label correlation undefined")
        raise DataError(
            "all labels identical: degree-label correlation undefined")

    chain = _LabelSwaps(g.degrees, labels, corr, target)
    return chain.run(lambda size: gen.random(size=(size, 2)),
                     target.max_iterations, "degree-label correlation",
                     lambda: LabeledGraph(g, chain.labels()))
