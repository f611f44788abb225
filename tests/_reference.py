"""Reference implementations the package is tested against.

``adjacency`` builds each node's sorted neighbors from the edge list by a
``lexsort`` of the arcs, apart from the package's arc-key sort: the walks
and laws below read it.
``random_nodes`` draws uniform nodes ``floor(u * n)``, and
``friends_of_random_nodes`` a uniform neighbor of each: the two-stage
friend-of-a-random-node draw that the package's ``FN`` law, drawn by
inverse CDF, is tested against.  ``sample_random_friends`` draws the
random-friend law d/M directly, without walking: the referee of ``RW``'s
law without a walk, the walk's stationary law.  ``walk_law`` is the exact
endpoint law of a finite walk in rational arithmetic, one neighbor at a
time: the reference for ``nepoll.sampling.walk_law``.  At length 1 it is
the two-stage law of a uniform neighbor of a uniform node, the reference
for the ``FN`` law.
``random_walk_endpoints`` walks, one uniform neighbor per step: the
referee that the package's exact walk law, and its draws from that law,
are tested against.  ``polled_in_ranges`` joins a sweep cell's
replications from polls of sub-ranges, each on a fresh cell stream
advanced past the replications before it: the reference for
``nepoll.harness.replicate`` and the sweep it runs.

``rewire_to_assortativity`` and ``assign_labels`` are the sequential swap
processes, one proposal at a time in plain Python, each steering by its
own copy of the package's correlation expressions.  ``nepoll.netgen``
decides each chunk of proposals by one rule, repeated until the chunk ends:
screen the rest of the chunk on the live state, keep the earliest local
claimant of each claim, accept the kept proposals in bulk up to the first
that fails the sequential float test, decide that one alone and screen
again after it.  With ``_PROPOSAL_CHUNK = 1`` that is the process here,
so its graphs, labels, achieved values and proposal counts must equal
these.  The chunk size and the stall limit are read from
``nepoll.netgen`` at call time, so a test that patches them patches both.

``configuration_model`` is the configuration model as first built: the
stubs permuted by ``gen.permutation``, self-loops masked out of both ends,
and the keys of the ``min``/``max`` ends made distinct by ``np.unique``.
``nepoll.netgen`` shuffles the stubs in place, which consumes the same
draws, and builds the keys in place; its graphs, erased-stub counts and
retries must equal these.

``edge_indices`` draws the Geometric(p) gaps between the indices of
G(n, p)'s edges one at a time, in Python ints, until their sum passes
the last pair.  ``nepoll.netgen`` draws them in blocks, and after the
last edge a block's draws are dropped, so its indices must equal these.

``first_claims`` finds each claim's earliest row through the stable sort
of ``np.unique``: the referee for ``nepoll.graph._first_claims``.

``rows_text`` formats rows with ``%``, one Python int at a time: the
referee for the digit-plane writer of ``nepoll.io``.

``sorting_build_graph``, ``sorting_read_edge_list`` and
``searching_read_labels`` always sort, find repeated rows by the stable
sort of ``np.unique`` (``repeated_rows``) and map label ids by
``searchsorted``: the referees for the package's constructor and
readers, which skip the sort of sorted keys, look for repeats before
marking them and map ids 0..n-1 by identity.
"""

import math
from fractions import Fraction

import numpy as np

from nepoll import netgen, poll_values, stream
from nepoll.errors import DataError, TargetUnreachableError
from nepoll.estimators import estimator_code
from nepoll.graph import Graph, LabeledGraph, build_graph
from nepoll.io import _data_lines, _read_pairs


def adjacency(g):
    """``(indptr, neighbors)``: ``neighbors[indptr[v]:indptr[v + 1]]`` are
    v's neighbors, ascending."""
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    counts = np.bincount(src, minlength=g.node_count)
    return (np.concatenate([[0], np.cumsum(counts)]),
            dst[np.lexsort((dst, src))])


def random_nodes(g, u):
    """Uniform nodes ``floor(u * n)``, shaped like the uniforms ``u``."""
    return (u * g.node_count).astype(np.int64)


def friends_of_random_nodes(g, u_node, u_friend):
    """Uniform nodes (``u_node``), then a uniform neighbor of each
    (``u_friend``): node ``v`` with probability sum(1/d(u)) / n over its
    neighbors u."""
    v = random_nodes(g, u_node)
    indptr, neighbors = adjacency(g)
    return neighbors[indptr[v] + (u_friend * g.degrees[v]).astype(np.int64)]


def sample_random_friends(g, gen, size):
    """Uniform edges, then a fair coin over each edge's two ends, so node v
    is drawn with probability exactly d(v) / edge_end_count."""
    e = gen.integers(0, g.edge_count, size=size)
    return g.edges[e, gen.integers(0, 2, size=size)]


def walk_law(g, length):
    """Probabilities, as fractions, that a ``length``-step walk from a
    uniform node ends at each node: node v passes its mass to each
    neighbor in equal shares, ``length`` times."""
    n = g.node_count
    indptr, flat = adjacency(g)
    law = [Fraction(1, n)] * n
    for _ in range(length):
        moved = [Fraction(0)] * n
        for v in range(n):
            neighbors = flat[indptr[v]:indptr[v + 1]].tolist()
            for u in neighbors:
                moved[u] += law[v] / len(neighbors)
        law = moved
    return law


def random_walk_endpoints(g, starts, length, gen):
    """Endpoints of independent walks of ``length`` steps from ``starts``:
    each step draws ``gen.random(len(starts))``, and a walker at ``v`` with
    uniform ``u`` moves to the uniform neighbor
    ``neighbors[indptr[v] + floor(u * d(v))]``."""
    cur = np.array(starts, dtype=np.int64)
    indptr, neighbors = adjacency(g)
    for _ in range(length):
        u = gen.random(len(cur))
        cur = neighbors[indptr[cur] + (u * g.degrees[cur]).astype(np.int64)]
    return cur


def polled_in_ranges(lg, kind, budget, cuts, master_seed, respondents=None):
    """Replications ``cuts[0]..cuts[-1]`` of the sweep cell (``kind``,
    ``budget``) under ``master_seed``, one poll per range
    ``cuts[i]..cuts[i+1]``: replication r reads doubles [r*b, (r+1)*b) of
    the cell stream for b = ``budget``, so each range starts ``lo * b``
    doubles in."""
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        gen = stream(master_seed, estimator_code(kind), budget)
        gen.bit_generator.advance(lo * budget)
        pieces.append(poll_values(kind, lg, budget, gen, hi - lo,
                                  respondents=respondents))
    return np.concatenate(pieces)


def rewire_to_assortativity(g, target, gen):
    """Draw two edges (in random orientation), propose replacing (a,b),(c,d)
    with (a,c),(b,d), and accept iff the move is simple and strictly
    shrinks the distance to the target."""
    if g.edge_count < 2:
        raise DataError("rewiring needs at least two edges")
    # mean and variance of the degree at a random edge end, in the float
    # expressions the package steers by
    big_m = g.edge_end_count
    d = g.degrees.astype(float)
    mu_q = float(np.dot(d, d)) / big_m
    sigma2_q = float(np.dot(d * d, d)) / big_m - mu_q * mu_q
    if sigma2_q <= 0.0:
        raise DataError("regular graph: degree-degree correlation undefined")

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
        raise DataError("regular graph: degree-label correlation undefined")
    ones = int(labels.sum())
    if ones == 0 or ones == n:
        raise DataError(
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


def configuration_model(spec):
    """``(graph, erased_stubs, attempt, odd)``: the configuration model's
    output, the attempt that gave it and whether that attempt's degree
    sum was odd (and so repaired)."""
    n = spec.node_count
    ks, pmf = netgen._power_law_pmf(spec.power_law_exponent, spec.k_min,
                                    spec.resolved_k_max())
    for attempt in range(netgen._MAX_GENERATION_RETRIES):
        gen = stream(spec.seed, attempt)
        degrees = gen.choice(ks, size=n, p=pmf)
        odd = bool(degrees.sum() % 2 == 1)
        if odd:
            degrees[gen.integers(n)] += 1
        perm = gen.permutation(np.repeat(np.arange(n, dtype=np.int64),
                                         degrees))
        u, v = perm[0::2], perm[1::2]
        keep = u != v
        keys = np.unique(np.minimum(u[keep], v[keep]) * n
                         + np.maximum(u[keep], v[keep]))
        g = Graph(n, keys, np.arange(n, dtype=np.int64))
        if g.min_degree > 0:
            return g, int(degrees.sum()) - g.edge_end_count, attempt, odd
    raise DataError("configuration model left isolated nodes")


def edge_indices(gen, p, pairs):
    """The indices in [0, pairs) of G(n, p)'s edges: each gap to the next
    is one Geometric(p) draw."""
    indices, t = [], -1
    while True:
        t += int(gen.geometric(p))
        if t >= pairs:
            return indices
        indices.append(t)


def first_claims(claims):
    """Mask of the rows of ``claims`` that are the earliest row to hold
    each of their values."""
    rows, width = claims.shape
    _, first, inverse = np.unique(claims, return_index=True,
                                  return_inverse=True)
    owner = (first // width)[inverse].reshape(rows, width)
    return (owner == np.arange(rows)[:, None]).all(axis=1)


def rows_text(rows):
    """``b"a b\\n"`` for every row of a ``(k, 2)`` integer array."""
    return (("%d %d\n" * len(rows)) % tuple(rows.ravel().tolist())).encode()


def repeated_rows(keys):
    """Mask of the rows whose key already occurred in an earlier row."""
    repeated = np.ones(len(keys), dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


def sorting_build_graph(edge_pairs):
    """``nepoll.build_graph`` by one ``np.unique`` rank and one sort."""
    raw = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    if not len(raw):
        raise DataError("a graph needs at least one edge")
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    ids, compact = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    keys = compact[:len(raw)] * len(ids) + compact[len(raw):]
    bad = (lo < 0) | (lo == hi) | repeated_rows(keys)
    if bad.any():
        u, v = (int(x) for x in raw[np.argmax(bad)])
        if u < 0 or v < 0:
            raise DataError(f"negative node id in edge ({u}, {v})")
        if u == v:
            raise DataError(f"self-loop at node {u}")
        raise DataError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
    return Graph(len(ids), np.sort(keys), ids)


def sorting_read_edge_list(path):
    """``nepoll.read_edge_list``, dropping repeated lines by
    ``repeated_rows``; a bad row left names its line, and a malformed line
    after it is not reported."""
    pairs, error = _read_pairs(path, "two node ids", "node id")
    if not len(pairs):
        raise error or DataError(f"{path}: a graph needs at least one edge")
    # equal numbers exactly for equal unordered pairs
    pair_ids = np.unique(np.sort(pairs, axis=1), axis=0,
                         return_inverse=True)[1].reshape(-1)
    kept = np.flatnonzero(~repeated_rows(pair_ids))
    try:
        g = sorting_build_graph(pairs[kept])
    except DataError as exc:
        rows = pairs[kept]
        bad = (rows < 0).any(axis=1) | (rows[:, 0] == rows[:, 1])
        lineno = list(_data_lines(path))[kept[np.argmax(bad)]][0]
        raise DataError(f"{path}:{lineno}: {exc}") from None
    if error is not None:
        raise error
    return g


def searching_read_labels(path, g):
    """``nepoll.read_labels``, every id found by ``searchsorted``."""
    rows, error = _read_pairs(path, "'<node_id> <0|1>'", "node id or label")
    node, value = rows[:, 0], rows[:, 1]
    ids = g.original_ids
    index = np.minimum(np.searchsorted(ids, node), g.node_count - 1)
    known = ids[index] == node
    bad = ~known | ((value != 0) & (value != 1)) | repeated_rows(index)
    if bad.any():
        row = int(np.argmax(bad))
        lineno = list(_data_lines(path))[row][0]
        if not known[row]:
            problem = f"node {node[row]} is not in the graph"
        elif value[row] not in (0, 1):
            problem = f"label must be 0 or 1, got {value[row]}"
        else:
            problem = f"node {node[row]} labeled twice"
        raise DataError(f"{path}:{lineno}: {problem}")
    if error is not None:
        raise error
    labels = np.zeros(g.node_count, dtype=np.int64)
    labels[index] = value
    return labels, g.node_count - len(rows)
