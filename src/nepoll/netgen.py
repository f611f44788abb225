"""Synthetic graph generation and controlled modification.

Two generators (truncated power-law configuration model, Erdos-Renyi) plus
two in-place modifiers: degree-preserving edge rewiring that steers the
degree-degree correlation toward a target, and iid label assignment followed
by label swapping that steers the degree-label correlation toward a target.

Each operation is a stochastic process driven by one stream, so
(spec, seed) reproduces identical output.  The modifiers draw proposals in
chunks of ``_PROPOSAL_CHUNK``, or of the most proposals a chunk can keep
when that is fewer (``m // 2`` for rewiring, the smaller label class for
labels), and decide a chunk in three steps; with one proposal per chunk
this is the one-at-a-time process.

1. One numpy pass over the state at the chunk start finds the local
   proposals (those the sequential rule accepts on that state) and keeps
   each that is the earliest local proposal to hold all of its claims: two
   edge indices and two added edge keys, or two pool positions for labels.
2. The kept proposals, pairwise disjoint, are accepted in bulk and in order
   up to the first whose running sum fails the sequential float test (the
   accept does not strictly shrink the distance to the target, reaches the
   band or crosses the target); the others before it are rejected.
3. From that proposal to the chunk's end, a plain-Python loop decides each
   proposal on the live state by the sequential rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AssortativityUndefinedError, DataError,
                     DegenerateSpecError, DegreeLabelCorrUndefinedError,
                     IsolatedNodeAfterRetriesError, TargetUnreachableError)
from .graph import Graph, LabeledGraph, _sorted_unique, build_graph
from .sampling import stream

_MAX_GENERATION_RETRIES = 100
_PROPOSAL_CHUNK = 8192
_STALL_LIMIT = 200_000  # consecutive rejected proposals before giving up


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

    def resolved_k_max(self) -> int:
        return self.node_count - 1 if self.k_max is None else self.k_max


@dataclass(frozen=True)
class ErdosRenyiSpec:
    node_count: int
    edge_probability: float
    seed: int = 0


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


@dataclass(frozen=True)
class LabelTarget:
    """Bernoulli(base_probability) labels, optionally swapped until the
    degree-label correlation reaches ``target``."""

    base_probability: float
    target: float | None = None
    tolerance: float = 0.02
    max_iterations: int = 2_000_000

    def __post_init__(self):
        _check_goal(self.target, self.tolerance)


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
    """
    n = spec.node_count
    k_max = spec.resolved_k_max()
    if n < 2:
        raise DegenerateSpecError("need at least two nodes")
    if spec.k_min < 1:
        raise DegenerateSpecError("k_min must be >= 1")
    if k_max < spec.k_min:
        raise DegenerateSpecError(
            f"k_max {k_max} < k_min {spec.k_min}")
    if k_max > n - 1:
        raise DegenerateSpecError(f"k_max {k_max} > n-1 = {n - 1}")
    if not spec.power_law_exponent > 1:
        raise DegenerateSpecError("power-law exponent must be > 1")

    ks, pmf = _power_law_pmf(spec.power_law_exponent, spec.k_min, k_max)
    for attempt in range(_MAX_GENERATION_RETRIES):
        gen = stream(spec.seed, attempt)
        degrees = gen.choice(ks, size=n, p=pmf)
        if degrees.sum() % 2 == 1:
            degrees[gen.integers(n)] += 1
        stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
        perm = gen.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        keep = u != v
        keys = _sorted_unique(np.minimum(u[keep], v[keep]) * n
                              + np.maximum(u[keep], v[keep]))
        pairs = np.stack(np.divmod(keys, n), axis=1)
        present = np.bincount(pairs.ravel(), minlength=n)
        if (present == 0).any():
            continue
        erased = int(degrees.sum()) - 2 * len(pairs)
        return build_graph(pairs, node_count=n), erased
    raise IsolatedNodeAfterRetriesError(
        f"configuration model left isolated nodes in "
        f"{_MAX_GENERATION_RETRIES} attempts")


def erdos_renyi(spec: ErdosRenyiSpec) -> Graph:
    """G(n, p): each unordered pair is an edge independently with
    probability p.  Draws with isolated nodes are retried."""
    n = spec.node_count
    p = spec.edge_probability
    if n < 2:
        raise DegenerateSpecError("need at least two nodes")
    if not 0.0 < p <= 1.0:
        raise DegenerateSpecError("edge probability must be in (0, 1]")
    for attempt in range(_MAX_GENERATION_RETRIES):
        gen = stream(spec.seed, attempt)
        us, vs = [], []
        for i in range(n - 1):
            hits = np.flatnonzero(gen.random(n - 1 - i) < p)
            if hits.size:
                us.append(np.full(hits.size, i, dtype=np.int64))
                vs.append(i + 1 + hits.astype(np.int64))
        if not us:
            continue
        u = np.concatenate(us)
        v = np.concatenate(vs)
        present = np.bincount(np.concatenate([u, v]), minlength=n)
        if (present == 0).any():
            continue
        return build_graph(np.stack([u, v], axis=1), node_count=n)
    raise IsolatedNodeAfterRetriesError(
        f"G(n={n}, p={p}) produced isolated nodes in "
        f"{_MAX_GENERATION_RETRIES} attempts")


def _assortativity_constants(degrees: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the degree of a random friend; both depend only
    on the degree sequence, so rewiring leaves them fixed."""
    big_m = int(degrees.sum())
    d = degrees.astype(float)
    mu_q = float(np.dot(d, d)) / big_m
    ex2_q = float(np.dot(d * d, d)) / big_m
    return mu_q, ex2_q - mu_q * mu_q


def _first_claims(claims: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``claims`` that are the earliest row to hold
    each of their values; the rows it keeps are pairwise disjoint."""
    rows, width = claims.shape
    _, first, inverse = np.unique(claims, return_index=True,
                                  return_inverse=True)
    owner = (first // width)[inverse].reshape(rows, width)
    return (owner == np.arange(rows)[:, None]).all(axis=1)


def _in_sorted(values, sorted_values: np.ndarray) -> np.ndarray:
    """Elementwise ``value in sorted_values`` (not empty) for an array or a
    scalar; the query is searched in ascending order, which keeps the
    binary searches in cache."""
    flat = np.ravel(values)
    order = np.argsort(flat)
    at = np.empty(len(flat), dtype=np.int64)
    at[order] = np.searchsorted(sorted_values, flat[order])
    found = sorted_values[np.minimum(at, len(sorted_values) - 1)] == flat
    return found.reshape(np.shape(values))


class _SwapProcess:
    """Steers ``corr(s)`` toward ``goal``; each accept moves the integer sum
    ``s`` by its step.  ``run`` decides chunk after chunk; ``decide`` runs
    the module's three steps on one through ``load`` (keep a chunk's
    draws), ``screen`` (positions, steps, claims and rows of the local
    proposals), ``apply`` (bulk accepts) and ``in_order`` (the sequential
    rule from a position to the chunk's end).  A chunk keeps proposals
    with disjoint claims, at most ``cap``, so no chunk is drawn larger."""

    def __init__(self, s: int, corr, goal: float, tol: float, cap: int):
        self.s, self.corr, self.goal, self.tol = s, corr, goal, tol
        self.cap = cap
        self.rejections = 0  # consecutive, since the last accept

    @property
    def current(self) -> float:
        return self.corr(self.s)

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
        size = self.load(draws)
        side = 1 if self.current < self.goal else -1
        pos, step, claims, rows = self.screen(side)
        last = -1
        if len(pos):
            kept = np.flatnonzero(_first_claims(claims))
            pos, step = pos[kept], step[kept]
            after = self.s + np.cumsum(step)
            new = self.corr(after)
            gap = np.abs(new - self.goal)
            fails = ((gap >= np.abs(self.corr(after - step) - self.goal))
                     | (gap <= self.tol) | ((new < self.goal) != (side > 0)))
            cut = int(fails.argmax()) if fails.any() else len(pos)
            if cut:
                self.apply(*(row[kept[:cut]] for row in rows))
                self.s += int(step[:cut].sum())
                last = int(pos[cut - 1])
            if cut < len(pos):
                last = self.in_order(int(pos[cut]), last)
        self.rejections = size - 1 - last if last >= 0 \
            else self.rejections + size


class _EdgeSwaps(_SwapProcess):
    """Edge ``e`` as the key ``u * n + v`` (``u < v``) in ``ekey[e]``, and
    all keys sorted in ``keys``."""

    def __init__(self, g: Graph, target: RewireTarget, mu_q: float,
                 sigma2_q: float):
        m, self.n = g.edge_count, g.node_count
        self.deg, self.deg_list = g.degrees, g.degrees.tolist()
        self.ekey = g.edges[:, 0] * self.n + g.edges[:, 1]
        self.keys = self.ekey.copy()  # ascending, as g.edges is

        def corr(s):
            return (s / m - mu_q * mu_q) / sigma2_q

        super().__init__(int(np.dot(*self.deg[g.edges.T])), corr,
                         target.target, target.tolerance, m // 2)

    def graph(self, g: Graph) -> Graph:
        """The edges as a graph over ``g``'s node ids.  Swaps keep every
        degree, so ``g``'s compact ids stay valid and need no remapping."""
        out = build_graph(np.stack(np.divmod(self.ekey, self.n), axis=1),
                          node_count=self.n)
        return Graph(self.n, out.edges, out.indptr, out.neighbors,
                     out.degrees, g.original_ids)

    def load(self, draws: tuple[np.ndarray, np.ndarray]) -> int:
        self.idx, self.flip = draws
        return len(self.idx)

    def _views(self, start: int):
        """Edge indices, flips and edges as they stand, ends ``a, b, c, d``
        and the keys of ``(a, c)``, ``(b, d)`` of proposals from ``start``."""
        ij = self.idx[start:].T
        (i, j), (fi, fj) = ij, self.flip[start:].T
        (ui, uj), (vi, vj) = np.divmod(self.ekey[ij], self.n)
        a, c = np.where(fi, vi, ui), np.where(fj, vj, uj)
        b, d = ui + vi - a, uj + vj - c
        added = np.array([np.minimum(a, c) * self.n + np.maximum(a, c),
                          np.minimum(b, d) * self.n + np.maximum(b, d)])
        return (i, j, fi, fj, ui, vi, uj, vj), (a, b, c, d), added

    def screen(self, side: int):
        (i, j, *_), (a, b, c, d), added = self._views(0)
        step = (self.deg[a] - self.deg[d]) * (self.deg[c] - self.deg[b])
        local = (i != j) & (a != c) & (b != d) & (step * side > 0)
        local[local] = ~_in_sorted(added[:, local], self.keys).any(axis=0)
        pos = np.flatnonzero(local)
        rows = (i[pos], j[pos], added[0, pos], added[1, pos])
        # edge indices as negatives, so they never meet a key
        claims = np.array([-1 - rows[0], -1 - rows[1], *rows[2:]]).T
        return pos, step[pos], claims, rows

    def apply(self, i, j, k1, k2) -> None:
        self._move(np.r_[i, j], np.r_[k1, k2])

    def _move(self, e: np.ndarray, new: np.ndarray) -> None:
        """Give the edges ``e`` the keys ``new``; ``keys`` stays sorted."""
        old, self.ekey[e] = self.ekey[e], new
        kept = np.ones(len(self.keys), dtype=bool)
        kept[np.searchsorted(self.keys, np.setdiff1d(old, new))] = False
        keys, added = self.keys[kept], np.setdiff1d(new, old)  # sorted
        self.keys = np.insert(keys, np.searchsorted(keys, added), added)

    def in_order(self, start: int, last: int) -> int:
        """The sequential rule on the live state from position ``start`` to
        the chunk's end, or to an accept that reaches the band; returns the
        last accept (``last`` if none)."""
        n, deg, keys = self.n, self.deg_list, self.keys
        corr, goal, tol = self.corr, self.goal, self.tol
        columns, _, added = self._views(start)
        edge: dict[int, tuple[int, int]] = {}  # edges moved by this loop
        has: dict[int, bool] = {}  # keys this loop added or removed

        def present(k, q, known):  # q, known: the key as of ``start``
            return has[k] if k in has else known if k == q \
                else _in_sorted(k, keys)

        s = self.s
        columns = (*columns, *added, *_in_sorted(added, keys))
        for p, (i, j, fi, fj, ui, vi, uj, vj, q1, q2, in1, in2) in enumerate(
                zip(*(column.tolist() for column in columns)), start):
            if i == j:
                continue
            ei, ej = edge.get(i) or (ui, vi), edge.get(j) or (uj, vj)
            a, b = ei if fi == 0 else ei[::-1]
            c, d = ej if fj == 0 else ej[::-1]
            if a == c or b == d:
                continue
            delta = (deg[a] - deg[d]) * (deg[c] - deg[b])
            new = corr(s + delta)
            if delta == 0 or abs(new - goal) >= abs(corr(s) - goal):
                continue
            new1 = (a, c) if a < c else (c, a)
            new2 = (b, d) if b < d else (d, b)
            k1, k2 = new1[0] * n + new1[1], new2[0] * n + new2[1]
            if present(k1, q1, in1) or present(k2, q2, in2):
                continue
            edge[i], edge[j] = new1, new2
            has[ei[0] * n + ei[1]] = has[ej[0] * n + ej[1]] = False
            has[k1] = has[k2] = True
            s, last = s + delta, p
            if abs(new - goal) <= tol:
                break
        if edge:
            self._move(np.array(list(edge)),
                       np.array([u * n + v for u, v in edge.values()]))
        self.s = s
        return last


def rewire_to_assortativity(g: Graph, target: RewireTarget,
                            gen: np.random.Generator) -> Graph:
    """Degree-preserving edge swaps toward a degree-degree correlation.

    A proposal draws two edges (in random orientation) and replaces
    (a,b),(c,d) with (a,c),(b,d); the sequential rule accepts it iff the
    move is simple (no self-loop, no duplicate) and strictly shrinks the
    distance to the target, tracked through the sum of degree products over
    edges.  Chunks of proposals are decided in the module's three steps.

    Raises :class:`TargetUnreachableError` carrying the best-effort graph
    when the proposal budget runs out or acceptance stalls.
    """
    if g.edge_count < 2:
        raise DataError("rewiring needs at least two edges")
    mu_q, sigma2_q = _assortativity_constants(g.degrees)
    if sigma2_q <= 0.0:
        raise AssortativityUndefinedError(
            "regular graph: degree-degree correlation undefined")

    chain = _EdgeSwaps(g, target, mu_q, sigma2_q)
    if abs(chain.current - target.target) <= target.tolerance:
        return g
    m = g.edge_count
    return chain.run(lambda size: (gen.integers(0, m, size=(size, 2)),
                                   gen.integers(0, 2, size=(size, 2))),
                     target.max_iterations, "assortativity",
                     lambda: chain.graph(g))


class _LabelSwaps(_SwapProcess):
    """The 0-labeled nodes in ``pool[:zeros]`` and the 1-labeled ones
    after them; a swap exchanges the nodes at one position of each part."""

    def __init__(self, deg: np.ndarray, labels: np.ndarray, corr,
                 target: LabelTarget):
        self.deg, self.deg_list = deg, deg.tolist()
        self.pool = np.argsort(labels, kind="stable")
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

    def screen(self, side: int):
        v = self.pool[self.at]
        step = self.deg[v[:, 0]] - self.deg[v[:, 1]]
        pos = np.flatnonzero(step * side > 0)
        at = self.at[pos]
        return pos, step[pos], at, (at,)

    def apply(self, at: np.ndarray) -> None:
        self.pool[at] = self.pool[at[:, ::-1]]

    def in_order(self, start: int, last: int) -> int:
        """As ``_EdgeSwaps.in_order``, on the live pool."""
        deg = self.deg_list
        corr, goal, tol = self.corr, self.goal, self.tol
        at = self.at[start:]
        now: dict[int, int] = {}  # pool positions this loop rewrote
        s = self.s
        for p, (i0, i1, v0, v1) in enumerate(
                zip(*at.T.tolist(), *self.pool[at].T.tolist()), start):
            v0, v1 = now.get(i0, v0), now.get(i1, v1)
            d0, d1 = deg[v0], deg[v1]
            cur = corr(s)
            if (d0 <= d1) if cur < goal else (d0 >= d1):
                continue
            new = corr(s + d0 - d1)
            if abs(new - goal) >= abs(cur - goal):
                continue
            now[i0], now[i1] = v1, v0
            s, last = s + d0 - d1, p
            if abs(new - goal) <= tol:
                break
        self.pool[list(now)] = list(now.values())
        self.s = s
        return last


def assign_labels(g: Graph, target: LabelTarget,
                  gen: np.random.Generator) -> LabeledGraph:
    """Draw iid Bernoulli labels, then swap label pairs toward a
    degree-label correlation target.

    A swap exchanges the labels of a random 0-labeled node and a random
    1-labeled node; moving label 1 onto the higher-degree node of the pair
    raises the correlation, onto the lower-degree node lowers it; the
    sequential rule accepts a swap iff it strictly shrinks the distance to
    the target.  Swaps keep the label counts.  Chunks of proposals are
    decided in the module's three steps.
    """
    if not 0.0 < target.base_probability < 1.0:
        raise DataError("base probability must lie strictly in (0, 1)")
    n = g.node_count
    labels = (gen.random(n) < target.base_probability).astype(np.int64)
    if target.target is None:
        return LabeledGraph(g, labels)

    deg = g.degrees
    mu_d = g.edge_end_count / n
    sigma_k = math.sqrt(max(float(np.dot(deg, deg)) / n - mu_d * mu_d, 0.0))
    if sigma_k == 0.0:
        raise DegreeLabelCorrUndefinedError(
            "regular graph: degree-label correlation undefined")
    ones = int(labels.sum())
    if ones == 0 or ones == n:
        raise DegreeLabelCorrUndefinedError(
            "all labels identical: degree-label correlation undefined")
    f_bar = ones / n
    sigma_f = math.sqrt(f_bar * (1.0 - f_bar))

    def corr(s):
        return (s / n - mu_d * f_bar) / (sigma_k * sigma_f)

    chain = _LabelSwaps(deg, labels, corr, target)
    return chain.run(lambda size: gen.random(size=(size, 2)),
                     target.max_iterations, "degree-label correlation",
                     lambda: LabeledGraph(g, chain.labels()))
