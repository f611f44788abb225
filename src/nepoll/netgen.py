"""Synthetic graph generation and controlled modification.

Two generators (truncated power-law configuration model, Erdos-Renyi) plus
two in-place modifiers: degree-preserving edge rewiring that steers the
degree-degree correlation toward a target, and iid label assignment followed
by label swapping that steers the degree-label correlation toward a target.

Each operation is a sequential stochastic process driven by one stream, so
(spec, seed) reproduces identical output.
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


def rewire_to_assortativity(g: Graph, target: RewireTarget,
                            rs: RandomStream) -> Graph:
    """Degree-preserving edge swaps toward a degree-degree correlation.

    Repeatedly draws two edges (in random orientation), proposes replacing
    (a,b),(c,d) with (a,c),(b,d), and accepts iff the move is simple (no
    self-loop, no duplicate) and strictly shrinks the distance to the
    target.  The correlation is tracked through the sum of degree products
    over edges, which each swap updates in O(1).

    Raises :class:`TargetUnreachableError` carrying the best-effort graph
    when the proposal budget runs out or acceptance stalls.
    """
    if g.edge_count < 2:
        raise DataError("rewiring needs at least two edges")
    mu_q, sigma2_q = _assortativity_constants(g.degrees)
    if sigma2_q <= 0.0:
        raise AssortativityUndefinedError(
            "regular graph: degree-degree correlation undefined")

    m = g.edge_count
    deg = g.degrees.tolist()
    eu = g.edges[:, 0].tolist()
    ev = g.edges[:, 1].tolist()
    edge_set = set(zip(eu, ev))
    s_prod = int(np.dot(g.degrees[g.edges[:, 0]], g.degrees[g.edges[:, 1]]))

    def corr(s: float) -> float:
        return (s / m - mu_q * mu_q) / sigma2_q

    def rebuild() -> Graph:
        return build_graph(g.original_ids[np.array([eu, ev]).T])

    current = corr(s_prod)
    if abs(current - target.target) <= target.tolerance:
        return g

    gen = rs.generator
    proposals = 0
    rejections = 0
    while proposals < target.max_iterations:
        chunk = min(_PROPOSAL_CHUNK, target.max_iterations - proposals)
        idx = gen.integers(0, m, size=(chunk, 2))
        flip = gen.integers(0, 2, size=(chunk, 2))
        for t in range(chunk):
            proposals += 1
            i, j = int(idx[t, 0]), int(idx[t, 1])
            if i == j:
                rejections += 1
                continue
            a, b = (eu[i], ev[i]) if flip[t, 0] == 0 else (ev[i], eu[i])
            c, d = (eu[j], ev[j]) if flip[t, 1] == 0 else (ev[j], eu[j])
            if a == c or b == d:
                rejections += 1
                continue
            new1 = (a, c) if a < c else (c, a)
            new2 = (b, d) if b < d else (d, b)
            if new1 in edge_set or new2 in edge_set:
                rejections += 1
                continue
            delta = (deg[a] - deg[d]) * (deg[c] - deg[b])
            if delta == 0:
                rejections += 1
                continue
            new_corr = corr(s_prod + delta)
            if abs(new_corr - target.target) >= abs(current - target.target):
                rejections += 1
                continue
            edge_set.remove((eu[i], ev[i]))
            edge_set.remove((eu[j], ev[j]))
            edge_set.add(new1)
            edge_set.add(new2)
            eu[i], ev[i] = new1
            eu[j], ev[j] = new2
            s_prod += delta
            current = new_corr
            rejections = 0
            if abs(current - target.target) <= target.tolerance:
                return rebuild()
        if rejections >= _STALL_LIMIT:
            break
    raise TargetUnreachableError(
        f"assortativity target {target.target} not reached after "
        f"{proposals} proposals", achieved=current, result=rebuild())


def assign_labels(g: Graph, target: LabelTarget,
                  rs: RandomStream) -> LabeledGraph:
    """Draw iid Bernoulli labels, then swap label pairs toward a
    degree-label correlation target.

    A swap exchanges the labels of a random 0-labeled node and a random
    1-labeled node; moving label 1 onto the higher-degree node of the pair
    raises the correlation, onto the lower-degree node lowers it.  Swaps
    preserve the label counts, so the labeled fraction never changes.
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

    deg_list = deg.tolist()
    pool0 = np.flatnonzero(labels == 0).tolist()
    pool1 = np.flatnonzero(labels == 1).tolist()
    s_df = int(np.dot(deg, labels))

    def corr(s: int) -> float:
        return (s / n - mu_d * f_bar) / (sigma_k * sigma_f)

    current = corr(s_df)
    goal, tol = target.target, target.tolerance
    proposals = 0
    rejections = 0
    while abs(current - goal) > tol:
        if proposals >= target.max_iterations or rejections >= _STALL_LIMIT:
            raise TargetUnreachableError(
                f"degree-label correlation target {goal} not reached after "
                f"{proposals} proposals", achieved=current,
                result=LabeledGraph(g, labels))
        chunk = min(_PROPOSAL_CHUNK, target.max_iterations - proposals)
        draws = gen.random(size=(chunk, 2))
        for t in range(chunk):
            proposals += 1
            i0 = int(draws[t, 0] * len(pool0))
            i1 = int(draws[t, 1] * len(pool1))
            v0, v1 = pool0[i0], pool1[i1]
            d0, d1 = deg_list[v0], deg_list[v1]
            need_up = current < goal
            if (need_up and d0 <= d1) or (not need_up and d0 >= d1):
                rejections += 1
                continue
            new_corr = corr(s_df + d0 - d1)
            if abs(new_corr - goal) >= abs(current - goal):
                rejections += 1
                continue
            labels[v0], labels[v1] = 1, 0
            pool0[i0], pool1[i1] = v1, v0
            s_df += d0 - d1
            current = new_corr
            rejections = 0
            if abs(current - goal) <= tol:
                break
        # re-enter the while condition to stop or keep drawing
    return LabeledGraph(g, labels)
