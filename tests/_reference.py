"""Reference implementations the package is tested against.

``sample_random_friends`` draws the random-friend law directly, without
walking: the reference the walk's stationary law is tested against (the
package samples it only by walking).

``rewire_to_assortativity`` and ``assign_labels`` are the sequential swap
processes, one proposal at a time in plain Python.  ``nepoll.netgen``
decides each chunk of proposals in three steps: the earliest local claimant
of each claim is kept, the kept proposals are accepted in bulk up to the
first that fails the sequential float test, and the rest of the chunk
follows the sequential rule.  With ``_PROPOSAL_CHUNK = 1`` that is the
process here, so its graphs, labels, achieved values and proposal counts
must equal these.  The chunk size and the stall limit are read from
``nepoll.netgen`` at call time, so a test that patches them patches both.
"""

import math

import numpy as np

from nepoll import netgen
from nepoll.errors import (AssortativityUndefinedError, DataError,
                           DegreeLabelCorrUndefinedError,
                           TargetUnreachableError)
from nepoll.graph import LabeledGraph, build_graph


def sample_random_friends(g, gen, size):
    """Uniform edges, then a fair coin over each edge's two ends, so node v
    is drawn with probability exactly d(v) / edge_end_count."""
    e = gen.integers(0, g.edge_count, size=size)
    return g.edges[e, gen.integers(0, 2, size=size)]


def rewire_to_assortativity(g, target, gen):
    """Draw two edges (in random orientation), propose replacing (a,b),(c,d)
    with (a,c),(b,d), and accept iff the move is simple and strictly
    shrinks the distance to the target."""
    if g.edge_count < 2:
        raise DataError("rewiring needs at least two edges")
    mu_q, sigma2_q = netgen._assortativity_constants(g.degrees)
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

    def rebuild():
        return build_graph(g.original_ids[np.array([eu, ev]).T])

    current = corr(s_prod)
    if abs(current - target.target) <= target.tolerance:
        return g

    proposals = 0
    rejections = 0
    while proposals < target.max_iterations:
        chunk = min(netgen._PROPOSAL_CHUNK, target.max_iterations - proposals)
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
        if rejections >= netgen._STALL_LIMIT:
            break
    raise TargetUnreachableError(
        f"assortativity target {target.target} not reached after "
        f"{proposals} proposals", achieved=current, result=rebuild())


def assign_labels(g, target, gen):
    """Draw iid Bernoulli labels, then swap the labels of a random 0-labeled
    and a random 1-labeled node while that strictly shrinks the distance to
    the degree-label correlation target."""
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
        if proposals >= target.max_iterations \
                or rejections >= netgen._STALL_LIMIT:
            raise TargetUnreachableError(
                f"degree-label correlation target {goal} not reached after "
                f"{proposals} proposals", achieved=current,
                result=LabeledGraph(g, labels))
        chunk = min(netgen._PROPOSAL_CHUNK, target.max_iterations - proposals)
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
    return LabeledGraph(g, labels)
