"""Synthetic graph generation and controlled modification.

Two generators (truncated power-law configuration model, Erdos-Renyi) plus
two in-place modifiers: degree-preserving edge rewiring that steers the
degree-degree correlation toward a target, and iid label assignment followed
by label swapping that steers the degree-label correlation toward a target.

Each operation is a sequential stochastic process driven by one stream, so
(spec, seed) reproduces identical output.  The two modifiers draw their
proposals in chunks and screen each chunk in numpy: only proposals whose
outcome depends on another proposal of the chunk, or that come near the
target, are decided one at a time, and the result equals the
one-proposal-at-a-time process (``_SwapChain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AssortativityUndefinedError, DataError,
                     DegenerateSpecError, DegreeLabelCorrUndefinedError,
                     IsolatedNodeAfterRetriesError, TargetUnreachableError)
from .graph import Graph, LabeledGraph, _sorted_unique, build_graph
from .sampling import RandomStream

_MAX_GENERATION_RETRIES = 100
_PROPOSAL_CHUNK = 8192
_STALL_LIMIT = 200_000  # consecutive rejected proposals before giving up
# numpy divides int64 sums as float64; below this bound the quotient is the
# one Python's int / int gives, so a chunk may be screened in numpy
_EXACT_SUMS = 2.0 ** 52


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


@dataclass(frozen=True)
class RewireTarget:
    target: float
    tolerance: float = 0.02
    max_iterations: int = 2_000_000

    def __post_init__(self):
        if self.tolerance <= 0:
            raise DataError("tolerance must be > 0")


@dataclass(frozen=True)
class LabelTarget:
    """Bernoulli(base_probability) labels, optionally swapped until the
    degree-label correlation reaches ``target``."""

    base_probability: float
    target: float | None = None
    tolerance: float = 0.02
    max_iterations: int = 2_000_000

    def __post_init__(self):
        if self.tolerance <= 0:
            raise DataError("tolerance must be > 0")


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
    a fresh substream.
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
    root = RandomStream(spec.seed)
    for attempt in range(_MAX_GENERATION_RETRIES):
        gen = root.substream(attempt).generator
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
    root = RandomStream(spec.seed)
    for attempt in range(_MAX_GENERATION_RETRIES):
        gen = root.substream(attempt).generator
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


def _unsure(slots: np.ndarray, owner: np.ndarray,
            local: np.ndarray) -> np.ndarray:
    """Proposals that read a slot an earlier proposal may have written.

    Proposal ``owner[k]`` reads ``slots[k]`` and writes it if accepted.
    A proposal may write if it passes its local test at the chunk start
    (``local``) or is itself unsure; the mask is the fixed point of that
    rule, so every other proposal sees its slots as at the chunk start.
    """
    size = len(local)
    unsure = np.zeros(size, dtype=bool)
    if not len(slots):
        return unsure
    slots, owner = np.divmod(np.sort(slots * size + owner), size)
    start = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
    width = np.diff(np.r_[start, len(slots)])
    while True:
        writer = np.where((local | unsure)[owner], owner, size)
        first = np.repeat(np.minimum.reduceat(writer, start), width)
        grown = np.zeros(size, dtype=bool)
        grown[owner[first < owner]] = True
        if (grown == unsure).all():
            return unsure
        unsure = grown


def _clashing(added: np.ndarray, adders: np.ndarray, removed: np.ndarray,
              removers: np.ndarray, size: int) -> np.ndarray:
    """Proposals owning a key that one proposal adds (or looks up) and
    another adds, looks up or removes.  Keys only removed, however often,
    belong to one edge index, which ``_unsure`` already orders."""
    keys = np.concatenate([added, removed])
    clash = np.zeros(size, dtype=bool)
    if not len(keys):
        return clash
    order = np.argsort(keys)
    keys = keys[order]
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    width = np.diff(np.r_[start, len(keys)])
    adds = np.add.reduceat((order < len(added)).astype(np.int64), start)
    bad = (adds >= 2) | ((adds >= 1) & (width > adds))
    clash[np.concatenate([adders, removers])[order[np.repeat(bad, width)]]] \
        = True
    return clash


def _in_sorted(values, sorted_values: np.ndarray):
    """Elementwise ``value in sorted_values``; an array query is searched
    in ascending order, which keeps the binary searches in cache."""
    if not len(sorted_values):
        return np.zeros(np.shape(values), dtype=bool)
    if np.ndim(values) == 0:
        at = min(int(np.searchsorted(sorted_values, values)),
                 len(sorted_values) - 1)
        return bool(sorted_values[at] == values)
    flat = np.ravel(values)
    order = np.argsort(flat)
    at = np.empty(len(flat), dtype=np.int64)
    at[order] = np.searchsorted(sorted_values, flat[order])
    found = sorted_values[np.minimum(at, len(sorted_values) - 1)] == flat
    return found.reshape(np.shape(values))


class _SwapChain:
    """A sequential swap process, decided one chunk of proposals at a time.

    The process tracks an integer sum ``s``; ``corr(s)`` is the correlation
    being steered, and an accept must strictly shrink ``|corr(s) - goal|``.
    While no accept reaches the tolerance band or crosses the goal, a
    proposal is accepted iff it passes its structural tests and its step
    points toward the goal.  So ``decide`` screens a chunk in numpy:
    a proposal whose slots no earlier possible writer of the chunk touches,
    and whose keys no other proposal touches, is decided from the state at
    the chunk start and applied in bulk; the rest ("entangled") go through
    ``in_order``, the exact sequential routine, which sees the bulk swaps
    before it and reads the sum as it stands at each position.  The merged
    trajectory is then checked against every float comparison the
    sequential process makes.  From the first accept that fails it (one
    that does not strictly approach the goal, reaches the band or crosses
    the goal) to the end of the chunk, ``in_order`` decides everything
    from the state as it stands.  The accept sequence, and so the result,
    equals the sequential process.

    Subclasses provide ``load`` (keep the chunk's draws), ``screen``
    (which also applies the bulk swaps), ``in_order`` and ``commit``
    (which keeps the bulk swaps before the cut, undoes the rest and
    applies the in-order records).  A record's first entry is its position
    and its last entry its step.
    """

    def __init__(self, s: int, corr, goal: float, tol: float, bulk: bool):
        self.s, self.corr, self.goal, self.tol = s, corr, goal, tol
        self.bulk = bulk  # False when sums may leave float64's exact ints
        self.rejections = 0  # consecutive, since the last accept

    @property
    def current(self) -> float:
        return self.corr(self.s)

    def decide(self, *draws) -> bool:
        """Decide one chunk; True if an accept reached the tolerance band
        (the chunk stops there)."""
        size = self.load(*draws)
        cut, last = 0, -1
        if self.bulk:
            side = 1 if self.current < self.goal else -1
            bulk, step, tangled, plan = self.screen(side)
            steps = np.zeros(size, dtype=np.int64)
            steps[bulk] = step
            stop, records = self.in_order(
                tangled, np.cumsum(steps)[tangled].tolist(), side, plan)
            for rec in records:
                steps[rec[0]] = rec[-1]
            cut = min(size if stop is None else stop,
                      self._first_unsafe(steps, bulk, side))
            records = [rec for rec in records if rec[0] < cut]
            taken = bulk < cut
            self.commit(plan, taken, records)
            self.s += int(steps[:cut].sum())
            last = max(int(bulk[taken][-1]) if taken.any() else -1,
                       records[-1][0] if records else -1)
        stop = None
        if cut < size:
            stop, records = self.in_order(np.arange(cut, size), None, 0, None)
            self.commit(None, None, records)
            self.s += sum(rec[-1] for rec in records)
            last = records[-1][0] if records else last
        self.rejections = size - 1 - last if last >= 0 \
            else self.rejections + size
        return stop is not None

    def _first_unsafe(self, steps: np.ndarray, bulk: np.ndarray,
                      side: int) -> int:
        """First bulk position whose accept the sequential process would not
        make, or whose accept ends the sign rule (band reached, goal
        crossed); ``len(steps)`` if none."""
        after_s = self.s + np.cumsum(steps)[bulk]
        after = self.corr(after_s)
        before = self.corr(after_s - steps[bulk])
        dist = np.abs(after - self.goal)
        bad = ((dist >= np.abs(before - self.goal)) | (dist <= self.tol)
               | ((after < self.goal) != (side > 0)))
        hit = np.flatnonzero(bad)
        return int(bulk[hit[0]]) if len(hit) else len(steps)


class _EdgeSwaps(_SwapChain):
    """Edges as ``eu < ev`` arrays plus the sorted keys ``eu * n + ev``."""

    def __init__(self, g: Graph, target: RewireTarget, mu_q: float,
                 sigma2_q: float):
        m, self.n = g.edge_count, g.node_count
        self.deg, self.deg_list = g.degrees, g.degrees.tolist()
        self.eu, self.ev = g.edges[:, 0].copy(), g.edges[:, 1].copy()
        self.keys = self.eu * self.n + self.ev  # ascending, as g.edges is
        s = int(np.dot(self.deg[self.eu], self.deg[self.ev]))

        def corr(s):
            return (s / m - mu_q * mu_q) / sigma2_q

        # s <= sum d^3 / 2, and a chunk moves it by at most chunk * dmax^2
        d = g.degrees.astype(float)
        bulk = (float(np.dot(d * d, d))
                + _PROPOSAL_CHUNK * float(d.max()) ** 2 < _EXACT_SUMS)
        super().__init__(s, corr, target.target, target.tolerance, bulk)

    def graph(self, g: Graph) -> Graph:
        """The edges as a graph over ``g``'s node ids.  Swaps keep every
        degree, so ``g``'s compact ids stay valid and need no remapping."""
        out = build_graph(np.stack([self.eu, self.ev], axis=1),
                          node_count=self.n)
        return Graph(self.n, out.edges, out.indptr, out.neighbors,
                     out.degrees, g.original_ids)

    def load(self, idx: np.ndarray, flip: np.ndarray) -> int:
        self.idx, self.flip = idx, flip
        return len(idx)

    def _views(self, positions: np.ndarray):
        """Both edges of each proposal as they stand, the proposed ends
        ``a, b, c, d`` and the four keys: removed ``(ui, vi)``, ``(uj, vj)``,
        added ``(a, c)``, ``(b, d)``."""
        n = self.n
        i, j = self.idx[positions, 0], self.idx[positions, 1]
        ui, vi, uj, vj = self.eu[i], self.ev[i], self.eu[j], self.ev[j]
        a = np.where(self.flip[positions, 0] == 0, ui, vi)
        c = np.where(self.flip[positions, 1] == 0, uj, vj)
        b, d = ui + vi - a, uj + vj - c
        keys = np.stack([ui * n + vi, uj * n + vj,
                         np.minimum(a, c) * n + np.maximum(a, c),
                         np.minimum(b, d) * n + np.maximum(b, d)])
        return (i, j, ui, vi, uj, vj), (a, b, c, d), keys

    def screen(self, side: int):
        size, deg = len(self.idx), self.deg
        (i, j, ui, vi, uj, vj), (a, b, c, d), keys = \
            self._views(np.arange(size))
        step = (deg[a] - deg[d]) * (deg[c] - deg[b])
        live = np.flatnonzero(i != j)
        local = (i != j) & (a != c) & (b != d) & (step * side > 0)
        unsure = _unsure(np.concatenate([i[live], j[live]]),
                         np.concatenate([live, live]), local)
        adders = np.flatnonzero(local)
        removers = np.flatnonzero(local | unsure)
        clash = _clashing(keys[2:, adders].ravel(), np.tile(adders, 2),
                          keys[:2, removers].ravel(), np.tile(removers, 2),
                          size)
        clean = np.flatnonzero(local & ~unsure & ~clash)
        bulk = clean[~_in_sorted(keys[2:, clean], self.keys).any(axis=0)]
        # applied now: entangled proposals after them read their edges
        old = (ui[bulk], vi[bulk], uj[bulk], vj[bulk])
        new = (np.minimum(a, c)[bulk], np.maximum(a, c)[bulk],
               np.minimum(b, d)[bulk], np.maximum(b, d)[bulk])
        self._write(i[bulk], j[bulk], new)
        plan = (i[bulk], j[bulk], old, keys[:, bulk])
        return bulk, step[bulk], np.flatnonzero(unsure | (local & clash)), \
            plan

    def _write(self, i, j, ends) -> None:
        self.eu[i], self.ev[i], self.eu[j], self.ev[j] = ends

    def in_order(self, positions: np.ndarray, offsets, side: int, plan):
        """The sequential process on the proposals at ``positions``.

        ``offsets[t]`` is what the bulk accepts before ``positions[t]`` add
        to ``s``.  With offsets, stop (returning that position) before an
        accept that would end the sign rule, and before an accept that
        would add a key a bulk swap adds or removes (the order of the two
        is then unknown here).  Without offsets, stop after the accept
        that reaches the band (returning the next position).  Returns
        ``(stop or None, records)``; the state is left to ``commit``.
        """
        n, deg = self.n, self.deg_list
        corr, goal, tol = self.corr, self.goal, self.tol
        (i, j, ui, vi, uj, vj), _, keys = self._views(positions)
        known = _in_sorted(keys[2:], self.keys)
        touched = None if plan is None else set(plan[-1].ravel().tolist())
        edge: dict[int, tuple[int, int]] = {}
        has: dict[int, bool] = {}
        records = []
        s = self.s
        columns = (positions, i, j, *self.flip[positions].T, ui, vi, uj, vj,
                   *keys[2:], *known)
        rows = zip(*(column.tolist() for column in columns),
                   offsets or [0] * len(positions))
        for p, i, j, fi, fj, ui, vi, uj, vj, q1, q2, in1, in2, off in rows:
            if i == j:
                continue
            ei = edge.get(i) or (ui, vi)
            ej = edge.get(j) or (uj, vj)
            a, b = ei if fi == 0 else ei[::-1]
            c, d = ej if fj == 0 else ej[::-1]
            if a == c or b == d:
                continue
            delta = (deg[a] - deg[d]) * (deg[c] - deg[b])
            if delta == 0:
                continue
            cur, new = corr(s + off), corr(s + off + delta)
            if abs(new - goal) >= abs(cur - goal):
                continue
            new1 = (a, c) if a < c else (c, a)
            new2 = (b, d) if b < d else (d, b)
            k1, k2 = new1[0] * n + new1[1], new2[0] * n + new2[1]
            if touched is not None and (k1 in touched or k2 in touched):
                return p, records
            if (has[k1] if k1 in has else in1 if k1 == q1
                    else _in_sorted(k1, self.keys)):
                continue
            if (has[k2] if k2 in has else in2 if k2 == q2
                    else _in_sorted(k2, self.keys)):
                continue
            reached = abs(new - goal) <= tol
            if offsets is not None and (reached or (new < goal) != (side > 0)):
                return p, records
            records.append((p, i, j, ei, ej, new1, new2, delta))
            edge[i], edge[j] = new1, new2
            has[ei[0] * n + ei[1]] = has[ej[0] * n + ej[1]] = False
            has[k1] = has[k2] = True
            s += delta
            if reached:
                return p + 1, records
        return None, records

    def commit(self, plan, taken, records) -> None:
        n, eu, ev = self.n, self.eu, self.ev
        removed = added = np.zeros(0, dtype=np.int64)
        if plan is not None:
            i, j, old, keys = plan
            self._write(i[~taken], j[~taken], (x[~taken] for x in old))
            removed, added = keys[:2, taken].ravel(), keys[2:, taken].ravel()
        net: dict[int, bool] = {}
        for _, i, j, ei, ej, new1, new2, _ in records:
            eu[i], ev[i] = new1
            eu[j], ev[j] = new2
            net[ei[0] * n + ei[1]] = net[ej[0] * n + ej[1]] = False
            net[new1[0] * n + new1[1]] = net[new2[0] * n + new2[1]] = True
        removed, added = np.sort(removed), np.sort(added)
        if net:
            # in-order records follow the bulk swaps they read
            keys = np.fromiter(net, dtype=np.int64, count=len(net))
            now = np.fromiter(net.values(), dtype=bool, count=len(net))
            was = _in_sorted(keys, self.keys) & ~_in_sorted(keys, removed)
            by_bulk = _in_sorted(keys, added)
            added = np.sort(np.concatenate([
                added[~_in_sorted(added, np.sort(keys[~now]))],
                keys[now & ~was & ~by_bulk]]))
            removed = np.concatenate([removed, keys[was & ~now]])
        if len(removed) or len(added):
            kept = np.ones(len(self.keys), dtype=bool)
            kept[np.searchsorted(self.keys, removed)] = False
            kept_keys = self.keys[kept]
            self.keys = np.insert(kept_keys,
                                  np.searchsorted(kept_keys, added), added)


def rewire_to_assortativity(g: Graph, target: RewireTarget,
                            rs: RandomStream) -> Graph:
    """Degree-preserving edge swaps toward a degree-degree correlation.

    Repeatedly draws two edges (in random orientation), proposes replacing
    (a,b),(c,d) with (a,c),(b,d), and accepts iff the move is simple (no
    self-loop, no duplicate) and strictly shrinks the distance to the
    target.  The correlation is tracked through the sum of degree products
    over edges, which each swap updates in O(1).  Each chunk of
    ``_PROPOSAL_CHUNK`` proposals is screened in numpy and only the
    proposals that interact, or that come near the target, are decided one
    by one (see ``_SwapChain``); the result equals the
    one-proposal-at-a-time process.

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

    gen = rs.generator
    m = g.edge_count
    proposals = 0
    while proposals < target.max_iterations:
        chunk = min(_PROPOSAL_CHUNK, target.max_iterations - proposals)
        idx = gen.integers(0, m, size=(chunk, 2))
        flip = gen.integers(0, 2, size=(chunk, 2))
        if chain.decide(idx, flip):
            return chain.graph(g)
        proposals += chunk
        if chain.rejections >= _STALL_LIMIT:
            break
    raise TargetUnreachableError(
        f"assortativity target {target.target} not reached after "
        f"{proposals} proposals", achieved=chain.current,
        result=chain.graph(g))


class _LabelSwaps(_SwapChain):
    """Positions in the pools of 0- and 1-labeled nodes; a swap exchanges
    the nodes at one position of each."""

    def __init__(self, deg: np.ndarray, labels: np.ndarray, corr,
                 target: LabelTarget):
        self.deg, self.deg_list = deg, deg.tolist()
        self.pool0 = np.flatnonzero(labels == 0)
        self.pool1 = np.flatnonzero(labels == 1)
        super().__init__(int(np.dot(deg, labels)), corr, target.target,
                         target.tolerance, bulk=True)

    def labels(self) -> np.ndarray:
        labels = np.zeros(len(self.deg), dtype=np.int64)
        labels[self.pool1] = 1
        return labels

    def load(self, draws: np.ndarray) -> int:
        self.at0 = (draws[:, 0] * len(self.pool0)).astype(np.int64)
        self.at1 = (draws[:, 1] * len(self.pool1)).astype(np.int64)
        return len(draws)

    def screen(self, side: int):
        at0, at1 = self.at0, self.at1
        v0, v1 = self.pool0[at0], self.pool1[at1]
        step = self.deg[v0] - self.deg[v1]
        local = step * side > 0
        every = np.arange(len(step))
        unsure = _unsure(np.concatenate([at0, at1 + len(self.pool0)]),
                         np.concatenate([every, every]), local)
        bulk = np.flatnonzero(local & ~unsure)
        at0, at1, v0, v1 = at0[bulk], at1[bulk], v0[bulk], v1[bulk]
        # applied now: entangled swaps after them read the pools
        self.pool0[at0], self.pool1[at1] = v1, v0
        return bulk, step[bulk], np.flatnonzero(unsure), (at0, at1, v0, v1)

    def in_order(self, positions: np.ndarray, offsets, side: int, plan):
        """The sequential process on the swaps at ``positions``; the stop
        rules and the result are those of ``_EdgeSwaps.in_order`` (swaps
        have no keys, so nothing here can clash with a bulk swap)."""
        deg = self.deg_list
        corr, goal, tol = self.corr, self.goal, self.tol
        at0, at1 = self.at0[positions], self.at1[positions]
        now0: dict[int, int] = {}
        now1: dict[int, int] = {}
        records = []
        s = self.s
        columns = (positions, at0, at1, self.pool0[at0], self.pool1[at1])
        rows = zip(*(column.tolist() for column in columns),
                   offsets or [0] * len(positions))
        for p, i0, i1, v0, v1, off in rows:
            v0 = now0.get(i0, v0)
            v1 = now1.get(i1, v1)
            d0, d1 = deg[v0], deg[v1]
            cur = corr(s + off)
            need_up = cur < goal
            if (need_up and d0 <= d1) or (not need_up and d0 >= d1):
                continue
            new = corr(s + off + d0 - d1)
            if abs(new - goal) >= abs(cur - goal):
                continue
            reached = abs(new - goal) <= tol
            if offsets is not None and (reached or (new < goal) != (side > 0)):
                return p, records
            records.append((p, i0, i1, v0, v1, d0 - d1))
            now0[i0], now1[i1] = v1, v0
            s += d0 - d1
            if reached:
                return p + 1, records
        return None, records

    def commit(self, plan, taken, records) -> None:
        if plan is not None:
            at0, at1, v0, v1 = (x[~taken] for x in plan)
            self.pool0[at0], self.pool1[at1] = v0, v1
        for _, i0, i1, v0, v1, _ in records:
            self.pool0[i0], self.pool1[i1] = v1, v0


def assign_labels(g: Graph, target: LabelTarget,
                  rs: RandomStream) -> LabeledGraph:
    """Draw iid Bernoulli labels, then swap label pairs toward a
    degree-label correlation target.

    A swap exchanges the labels of a random 0-labeled node and a random
    1-labeled node; moving label 1 onto the higher-degree node of the pair
    raises the correlation, onto the lower-degree node lowers it.  Swaps
    preserve the label counts, so the labeled fraction never changes.
    Each chunk of ``_PROPOSAL_CHUNK`` proposals is screened in numpy and
    only swaps that share a pool position are decided one by one (see
    ``_SwapChain``); the result equals the one-swap-at-a-time process.
    """
    if not 0.0 < target.base_probability < 1.0:
        raise DataError("base probability must lie strictly in (0, 1)")
    n = g.node_count
    gen = rs.generator
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
    goal, tol = target.target, target.tolerance
    proposals = 0
    while abs(chain.current - goal) > tol:
        if proposals >= target.max_iterations \
                or chain.rejections >= _STALL_LIMIT:
            raise TargetUnreachableError(
                f"degree-label correlation target {goal} not reached after "
                f"{proposals} proposals", achieved=chain.current,
                result=LabeledGraph(g, chain.labels()))
        chunk = min(_PROPOSAL_CHUNK, target.max_iterations - proposals)
        chain.decide(gen.random(size=(chunk, 2)))
        proposals += chunk
    return LabeledGraph(g, chain.labels())
