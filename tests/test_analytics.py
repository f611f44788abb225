import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from nepoll import (ConfigModelSpec, DataError, ErdosRenyiSpec, LabeledGraph,
                    assortativity, brute_force_estimator_law,
                    budget_threshold, build_graph, configuration_model,
                    degree_label_corr, erdos_renyi, error_bounds,
                    exact_error, friendship_paradox_check, graph_flags,
                    label_degree_covariance, mean_degree, mean_label_friend,
                    respondent_law, run_report, spectral_summary, stream,
                    walk_law)
from nepoll import analytics

from _reference import walk_law as reference_walk_law
from _strategies import edge_lists, graphs, labeled_graphs


# ---------------------------------------------------------------------------
# network statistics

def test_correlations_star(star_lg):
    assert assortativity(star_lg.graph) == pytest.approx(-1.0, abs=1e-12)
    assert degree_label_corr(star_lg) == pytest.approx(1.0, abs=1e-12)


def test_assortativity_matches_networkx():
    g = erdos_renyi(ErdosRenyiSpec(node_count=4000, edge_probability=0.003,
                                   seed=1))
    reference = nx.degree_assortativity_coefficient(nx.Graph(g.edges.tolist()))
    assert assortativity(g) == pytest.approx(reference, rel=0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(lg=labeled_graphs())
# a regular graph, and constant labels
@example(lg=LabeledGraph(build_graph([(0, 1), (1, 2), (2, 0)]), [1, 0, 0]))
@example(lg=LabeledGraph(build_graph([(0, 1), (0, 2), (0, 3)]), [0] * 4))
def test_correlations_in_range(lg):
    r_kk, rho = assortativity(lg.graph), degree_label_corr(lg)
    degrees, labels = lg.graph.degrees, lg.labels
    regular = degrees.min() == degrees.max()
    assert (r_kk is None) == regular
    assert (rho is None) == (regular or labels.min() == labels.max())
    if r_kk is not None:
        assert -1.0 - 1e-9 <= r_kk <= 1.0 + 1e-9
    if rho is not None:
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9
        assert rho == pytest.approx(np.corrcoef(degrees, labels)[0, 1],
                                    rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# spectrum

def _dense_spectrum(g):
    """Eigenvalues of N = D^-1/2 A D^-1/2 from networkx's dense adjacency
    matrix: the oracle the sparse spectrum is refereed by."""
    a = nx.to_numpy_array(nx.Graph(g.edges.tolist()),
                          nodelist=range(g.node_count))
    scale = 1.0 / np.sqrt(a.sum(axis=1))
    return np.linalg.eigvalsh(scale[:, None] * a * scale[None, :])


def _sparse_random_graph(n, extra_edges, seed):
    """A Hamiltonian path through a random permutation (connected, no
    isolated node) plus ``extra_edges`` uniform pairs, repeats dropped."""
    gen = stream(seed)
    perm = gen.permutation(n)
    pairs = np.concatenate([np.stack([perm[:-1], perm[1:]], axis=1),
                            gen.integers(0, n, size=(extra_edges, 2))])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    return build_graph(np.stack(np.divmod(keys, n), axis=1))


# lambda2, exactly 1 on a bipartite or disconnected graph; whether two
# nodes are twins, with one neighbor set, which certifies lambda_n = 0; and
# the dense referee's smallest singular value
@pytest.mark.parametrize("edges, lambda2, twins, least", [
    ([(0, 1), (1, 2), (2, 0)], 0.5, False, 0.5),
    # every node has degree 2, but no two share a neighbor set
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], abs(math.cos(4 * math.pi / 5)),
     False, abs(math.cos(2 * math.pi / 5))),
    # the leaves share the neighbor set {0}
    ([(0, 1), (0, 2), (0, 3)], 1.0, True, 0.0),
    # each component contributes a unit singular value
    ([(0, 1), (2, 3)], 1.0, False, 1.0),
    # nodes 0 and 1 share the neighbor set {2, 3} in a non-bipartite graph,
    # whose most negative eigenvalue is -(3 + sqrt(33)) / 12
    ([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)],
     (3 + math.sqrt(33)) / 12, True, 0.0),
], ids=["triangle", "c5", "star", "two-edges", "twins"])
def test_spectrum_examples(edges, lambda2, twins, least):
    g = build_graph(edges)
    s = spectral_summary(g)
    assert s.lambda2 == (1.0 if lambda2 == 1.0
                         else pytest.approx(lambda2, abs=1e-12))
    assert s.top_residual <= 1e-12
    assert (s.lambda_n, s.lambda_n_exact) == (0.0, twins)
    assert np.abs(_dense_spectrum(g)).min() == pytest.approx(least, abs=1e-12)


@st.composite
def blown_up_graphs(draw):
    """A small graph with each node v replaced by 1-4 copies, every copy of
    v joined to every copy of each neighbor of v: the copies of one node
    are twins, so several groups of twins, of up to four, can coexist."""
    base = draw(edge_lists(max_nodes=5))
    n = 1 + max(max(e) for e in base)
    copies, start = [], 0
    for count in draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)):
        copies.append(range(start, start + count))
        start += count
    ids = draw(st.permutations(range(start)))
    return build_graph([(ids[a], ids[b]) for u, v in base
                        for a in copies[u] for b in copies[v]])


def _keys_set_to_one(rows):
    """A stand-in for the twin hash's stream: its key sets ``rows`` are
    all 1, so every two nodes of equal degree tie on those sums, and the
    others are drawn.  ``bounds`` collects the bound of each draw."""
    class Keys:
        bounds = []

        def __init__(self, seed):
            self.gen = stream(seed)

        def integers(self, low, high, size):
            self.bounds.append(high)
            keys = self.gen.integers(low, high, size)
            keys[rows] = 1
            return keys
    return Keys


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(
    graphs(max_nodes=12), blown_up_graphs(),
    st.integers(1, 11).map(lambda k: build_graph([(0, i)
                                                  for i in range(1, k + 1)]))))
def test_twin_check_matches_networkx_neighbor_sets(g):
    """``lambda_n_exact`` is true iff two nodes of the networkx graph have
    equal neighbor sets.  Keys stay below 2**53 / max degree, so sums are
    exact.  With every first sum of a degree tied, the second sums find
    the twins; with both tied, a collision still never certifies."""
    nx_graph = nx.Graph(g.edges.tolist())
    sets = [frozenset(nx_graph[v]) for v in nx_graph]
    twins = len(set(sets)) < len(sets)
    assert spectral_summary(g).lambda_n_exact == twins
    first_tied, both_tied = _keys_set_to_one([0]), _keys_set_to_one([0, 1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytics, "stream", first_tied)
        assert analytics._has_twins(g) == twins
        mp.setattr(analytics, "stream", both_tied)
        assert not analytics._has_twins(g) or twins
    assert first_tied.bounds[0] * int(g.degrees.max()) <= 2 ** 53


def test_lanczos_that_does_not_converge_raises(monkeypatch):
    g = _sparse_random_graph(300, 600, seed=5)
    monkeypatch.setattr(analytics, "_LANCZOS_MAX_STEPS", 12)
    with pytest.raises(DataError, match="^lambda2: Lanczos did not converge "
                                        "in 12 steps$"):
        spectral_summary(g)


@st.composite
def _tridiagonals(draw):
    """``(diagonal, off-diagonal)`` of a symmetric tridiagonal: plain, with
    zero diagonal (its ends are +-theta), with a spike on the first entry
    (the top vector decays down the rows: |s_k| from 1 to below 1e-20),
    or two mirrored copies of one joined by an off-diagonal near 0 (a
    clustered top pair)."""
    k = draw(st.integers(1, 24))
    unit = st.floats(-1.0, 1.0)
    a = np.array(draw(st.lists(unit, min_size=k, max_size=k)))
    b = np.abs(draw(st.lists(unit, min_size=k - 1, max_size=k - 1)))
    shape = draw(st.sampled_from(["plain", "symmetric", "spike", "twin"]))
    if shape == "symmetric":
        a[:] = 0.0
    elif shape == "spike":
        a[0] += draw(st.floats(1.0, 30.0))
    elif shape == "twin":
        near_zero = draw(st.floats(1e-300, 1e-6))
        a, b = np.r_[a, a[::-1]], np.r_[b, near_zero, b[::-1]]
    return a, b


def _eigenvalues_below(a, b, x):
    """How many eigenvalues of the symmetric tridiagonal with diagonal
    ``a`` and off-diagonal ``b`` lie below the rational ``x``, exactly: the
    negative pivots of T - x I in rational arithmetic (Sylvester's law of
    inertia).  A zero pivot is taken at x minus an infinitesimal, where it
    is positive and the next pivot is -infinity."""
    below, d = 0, None  # the previous pivot, None when it is infinite
    for ai, bi in zip(a, [0.0, *b]):
        if bi and d == 0:
            below, d = below + 1, None
            continue
        p = Fraction(ai) - x
        if bi and d is not None:
            p -= Fraction(bi) ** 2 / d
        below, d = below + (p < 0), p
    return below


@settings(max_examples=300, deadline=None)
@given(t=_tridiagonals())
@example(t=(np.array([0.3]), np.array([])))
@example(t=(np.array([0.5, -0.5]), np.array([0.25])))
@example(t=(np.array([0.0, 0.0]), np.array([0.7])))
@example(t=(np.array([0.0, 0.0]), np.array([0.0])))
# LAPACK's eigh puts |T| 9 ulps above the true 1.76862813205337680
@example(t=(np.array([
    0.0, 0.0, 0.0, 0.0, 0.0, 0.8615683708930613, 0.3238805272643204, 0.0,
    -0.3448285421961289, 0.0, -0.9208821926944211, 0.6414066437463464, 1.0,
    0.0, 0.0, -0.9666188259666209]), np.array([
    0.0, 0.0, 0.0, 0.0, 0.0, 0.9761961079960035, 0.2995868491035625,
    0.2995868491035625, 0.7333607916256355, 0.4407360431193167,
    0.7518993024600689, 0.6582561999055923, 0.5913156797028991, 1.0,
    0.0008302670873568355])))
# subnormal: the float nearest theta may lie farther than 2 eps |theta| off
@example(t=(np.array([0.0, 2.22507386e-313]), np.array([2.22507386e-313])))
def test_extreme_ritz_pair_matches_dense_eigh(t):
    a, b = t
    eps = np.finfo(float).eps
    theta, s_k = analytics._extreme_ritz_pair(a.tolist(), b.tolist())
    # exact referee for theta: the whole spectrum lies within |theta| + tol
    # of 0, and an eigenvalue within tol of theta.  mpmath puts theta
    # within 0.62 ulps of |T| over 1500 drawn cases.  Below the smallest
    # normal float the ulp is fixed at 2**-1074, so tol keeps the floor
    # 2 eps 2**-1022 = 2 * 2**-1074, which leaves it unchanged for normal
    # theta
    n, exact = len(a), Fraction(theta)
    tol = max(Fraction(2 * eps) * abs(exact), Fraction(2, 2 ** 1074))
    assert _eigenvalues_below(a, b, -abs(exact) - tol) == 0
    assert _eigenvalues_below(-a, b, -abs(exact) - tol) == 0
    # eigenvalues of T above exact + tol are those of -T below its negation
    assert n - _eigenvalues_below(-a, b, -exact - tol) \
        > _eigenvalues_below(a, b, exact - tol)
    # test-only referee for s_k: the dense eigensolve the check replaces
    values, vectors = np.linalg.eigh(np.diag(a) + np.diag(b, 1)
                                     + np.diag(b, -1))
    norm = np.abs(values).max()
    i = int(np.argmin(np.abs(values - theta)))
    gap = np.delete(np.abs(values - values[i]), i).min(initial=np.inf)
    if gap == 0.0:
        return  # a repeated eigenvalue has no one vector
    # both vectors lie within about k eps |T| / gap of the true one
    tol = 1e-14 + 16 * len(a) * eps * norm / gap
    ref = abs(vectors[-1, i])
    assert s_k <= max(ref, 1e-14) + tol
    if ref >= 1e-14:
        assert abs(s_k - ref) <= tol


@pytest.mark.parametrize("make_graph", [
    lambda: _sparse_random_graph(25_000, 100_000, seed=11),
    # a near-degenerate cluster: the second largest |eigenvalue| is the
    # most negative one, -0.86092711, which eigsh(which="LM") misses
    lambda: configuration_model(ConfigModelSpec(
        node_count=5000, power_law_exponent=2.4, k_min=2, seed=32))[0],
], ids=["sparse-25k", "config-5k-seed-32"])
def test_spectrum_above_the_old_dense_size_cap_matches_eigsh(make_graph):
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh
    g = make_graph()
    assert graph_flags(g).connected and not graph_flags(g).bipartite
    scale = 1.0 / np.sqrt(g.degrees.astype(float))
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    mat = csr_matrix((scale[rows] * scale[cols], (rows, cols)),
                     shape=(g.node_count, g.node_count))
    v0 = np.random.default_rng(0).random(g.node_count)
    # the two ends of the spectrum separately: the top is 1, so lambda2 is
    # the second largest value or minus the smallest
    top = eigsh(mat, k=2, which="LA", tol=1e-12, return_eigenvectors=False,
                v0=v0)
    bottom = eigsh(mat, k=1, which="SA", tol=1e-12,
                   return_eigenvectors=False, v0=v0)
    s = spectral_summary(g)
    assert s.lambda2 == pytest.approx(max(np.sort(top)[0], -bottom[0]),
                                      abs=1e-9)
    assert s.top_residual <= 1e-9


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_nodes=12))
def test_spectrum_matches_networkx_matrix(g):
    singular_values = np.sort(np.abs(_dense_spectrum(g)))[::-1]
    s = spectral_summary(g)
    assert abs(s.lambda2 - singular_values[1]) <= 1e-10
    assert s.lambda_n <= singular_values[-1] + 1e-12
    if s.lambda_n_exact:
        assert singular_values[-1] <= 1e-12


# ---------------------------------------------------------------------------
# closed-form errors and their bounds

def _exact(lg, kind, walk=None):
    """``exact_error`` under the ``kind`` respondents' law."""
    return exact_error(lg, kind, respondent_law(lg.graph, kind, walk))


def _bounds(lg):
    s = spectral_summary(lg.graph)
    return error_bounds(lg, s.lambda2, s.lambda_n)


# single-sample (bias, var1) worked by hand: on a regular graph RW and FN
# poll the uniform law, as UN does
@pytest.mark.parametrize("graph, labels, kind, error", [
    ("star", [1, 0, 0, 0], "IP", (0.0, 0.1875)),
    ("star", [1, 0, 0, 0], "UN", (0.5, 0.1875)),
    ("star", [1, 0, 0, 0], "RW", (0.25, 0.25)),
    ("star", [1, 0, 0, 0], "FN", (0.0, 0.1875)),
    ("k3", [1, 0, 0], "IP", (0.0, 2 / 9)),
    ("k3", [1, 0, 0], "UN", (0.0, 1 / 18)),
    ("k3", [1, 0, 0], "RW", (0.0, 1 / 18)),
    ("k3", [1, 0, 0], "FN", (0.0, 1 / 18)),
    # the responses 0, 1, 0, 1 have the labels' mean and variance
    ("c4", [1, 0, 1, 0], "IP", (0.0, 0.25)),
    ("c4", [1, 0, 1, 0], "UN", (0.0, 0.25)),
    ("c4", [1, 0, 1, 0], "RW", (0.0, 0.25)),
    ("c4", [1, 0, 1, 0], "FN", (0.0, 0.25)),
], ids=[f"{g}-{k}" for g in ("star", "k3", "c4")
        for k in ("IP", "UN", "RW", "FN")])
def test_exact_error_examples(request, graph, labels, kind, error):
    lg = LabeledGraph(request.getfixturevalue(graph), labels)
    assert _exact(lg, kind) == pytest.approx(error, abs=1e-12)


def test_unbiased_laws_are_exactly_unbiased(star_lg, k3_lg):
    # IP reads each node's own label; a walk on a regular graph is uniform
    assert _exact(star_lg, "IP")[0] == _exact(k3_lg, "RW")[0] == 0.0


def test_error_bounds_star(star_lg):
    # above the star's UN var1 0.1875, RW var1 0.25 and FN bias 0
    b = _bounds(star_lg)
    assert (b.un_variance, b.rw_variance, b.fn_bias_sq) == pytest.approx(
        (0.75, 0.5, 0.625), abs=1e-12)


def test_fn_bias_bound_reads_lambda_n_as_singular_value():
    def fn_bias_sq_bound(lg, lambda_n):  # lambda2 does not enter it
        return error_bounds(lg, 1.0, lambda_n).fn_bias_sq

    # sound: the bound with the smallest singular value, on random graphs
    gen = stream(2241)
    for _ in range(500):
        n = int(gen.integers(3, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if gen.random() < 0.4]
        if not pairs:
            continue
        g = build_graph(pairs)
        lg = LabeledGraph(g, gen.integers(0, 2, size=g.node_count))
        smallest_singular_value = np.abs(_dense_spectrum(g)).min()
        bias = _exact(lg, "FN")[0]
        assert bias ** 2 <= fn_bias_sq_bound(lg, smallest_singular_value) \
            + 1e-12

    # unsound: the smallest eigenvalue, -1 on this bipartite path
    g = build_graph([(0, 3), (1, 2), (2, 3)])
    lg = LabeledGraph(g, [0, 1, 0, 0])
    a = np.zeros((4, 4))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a += a.T
    d = a.sum(axis=1)
    smallest_eigenvalue = np.linalg.eigvalsh(a / np.sqrt(np.outer(d, d)))[0]
    assert smallest_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    assert _exact(lg, "FN")[0] ** 2 == pytest.approx(1 / 256, abs=1e-12)
    assert fn_bias_sq_bound(lg, smallest_eigenvalue) == pytest.approx(
        0.0, abs=1e-12)
    assert _bounds(lg).fn_bias_sq >= 1 / 256


# ---------------------------------------------------------------------------
# budget threshold

def test_budget_threshold_star_non_positive(star_lg):
    t = budget_threshold(star_lg, spectral_summary(star_lg.graph).lambda2)
    assert t == pytest.approx(-5.0, abs=1e-9)


def test_budget_threshold_triangle_unbounded(k3_lg):
    t = budget_threshold(k3_lg, spectral_summary(k3_lg.graph).lambda2)
    assert t == math.inf


def test_budget_threshold_minus_inf_on_cycle():
    # C_9 is regular, so the label-degree covariance is 0, and with nodes
    # 0-3 labeled 1 the numerator f(1 - f) - lambda2^2 E{f(friend)} is
    # negative: the bound holds for no budget
    c9 = build_graph([(i, (i + 1) % 9) for i in range(9)])
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0]
    lg = LabeledGraph(c9, labels)
    assert label_degree_covariance(lg) == 0.0
    assert budget_threshold(lg, spectral_summary(c9).lambda2) == -math.inf
    assert "budget_threshold: non-positive (-inf)\n" in \
        run_report(c9, np.array(labels)).to_text()


def test_budget_threshold_finite_positive():
    # wheel graph (hub plus 5-cycle) with one labeled rim node: the
    # covariance is nonzero and the expansion is good, so the threshold
    # is finite and positive
    wheel = build_graph([(0, i) for i in range(1, 6)]
                        + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    lg = LabeledGraph(wheel, [0, 0, 0, 0, 0, 1])
    lam2 = spectral_summary(wheel).lambda2
    assert lam2 < 1.0
    t = budget_threshold(lg, lam2)
    assert 0.0 < t < math.inf
    f_bar = lg.true_fraction
    expected = ((f_bar * (1 - f_bar) - lam2 ** 2 * mean_label_friend(lg))
                * mean_degree(wheel) ** 2
                / label_degree_covariance(lg) ** 2)
    assert t == pytest.approx(expected, abs=1e-12)
    assert t == pytest.approx(342.9179606750062, abs=1e-9)


# ---------------------------------------------------------------------------
# paradox checks

def _paradox(g):
    return friendship_paradox_check(g, respondent_law(g, "FN"))


def _degree_cdfs(g):
    """The degree values, and in Fractions the degree CDFs of a uniform
    node and of a uniform neighbor of a uniform node (the reference walk
    law of one step)."""
    degrees = g.degrees.tolist()
    neighbor = reference_walk_law(g, 1)
    ks = sorted(set(degrees))
    cdf_uniform = [Fraction(sum(d <= k for d in degrees), g.node_count)
                   for k in ks]
    cdf_neighbor = [sum((p for p, d in zip(neighbor, degrees) if d <= k),
                        Fraction(0)) for k in ks]
    return ks, cdf_uniform, cdf_neighbor


# the mean degrees of a uniform node, a uniform friend (an edge end) and a
# uniform neighbor of a uniform node, and at each degree the CDFs of the
# first and the last; the first two means are ratios of integer sums
@pytest.mark.parametrize("graph, means, ks, cdf_uniform, cdf_neighbor", [
    ("star", (1.5, 2.0, 2.5), [1, 3], [Fraction(3, 4), 1],
     [Fraction(1, 4), 1]),
    # on a regular graph the three laws give one degree
    ("k3", (2.0, 2.0, 2.0), [2], [1], [1]),
    ("path3", (4 / 3, 1.5, 5 / 3), [1, 2], [Fraction(2, 3), 1],
     [Fraction(1, 3), 1]),
], ids=["star", "k3", "path3"])
def test_paradox_examples(request, graph, means, ks, cdf_uniform,
                          cdf_neighbor):
    g = request.getfixturevalue(graph)
    c = _paradox(g)
    assert (c.mean_degree_uniform, c.mean_degree_friend) == means[:2]
    assert c.mean_degree_neighbor == pytest.approx(means[2], abs=1e-12)
    assert c.holds and c.fosd_holds
    assert _degree_cdfs(g) == (ks, cdf_uniform, cdf_neighbor)


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_fosd_holds_is_exact_dominance(g):
    # in no graph of networkx's atlas (up to 7 nodes) does the neighbor
    # degree law fail to dominate, so this compares the two results; it
    # cannot pin a failing case
    _, cdf_uniform, cdf_neighbor = _degree_cdfs(g)
    assert _paradox(g).fosd_holds == all(
        z <= x for z, x in zip(cdf_neighbor, cdf_uniform))


# ---------------------------------------------------------------------------
# brute-force oracle and equivalence

def test_brute_force_star_values(star_lg):
    assert brute_force_estimator_law(star_lg, "IP") == (0.25, 0.1875)
    assert brute_force_estimator_law(star_lg, "UN") == (0.75, 0.1875)
    assert brute_force_estimator_law(star_lg, "RW") == (0.5, 0.25)
    assert brute_force_estimator_law(star_lg, "FN") == (0.25, 0.1875)


@pytest.mark.parametrize("law", [
    brute_force_estimator_law,
    lambda lg, kind: exact_error(lg, kind, np.ones(lg.graph.node_count))])
def test_unknown_kind_is_data_error(star_lg, law):
    with pytest.raises(DataError, match="unknown estimator kind 'XX'"):
        law(star_lg, "XX")


def test_walk_law_of_another_graph_is_data_error(star_lg):
    walk = walk_law(build_graph([(0, 1), (1, 2), (2, 0)]), 1)
    with pytest.raises(DataError,
                       match="^the walk law is not over the graph's nodes$"):
        _exact(star_lg, "RW", walk)
    with pytest.raises(
            DataError,
            match="^the respondent law is not over the graph's nodes$"):
        exact_error(star_lg, "RW", walk.law)


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs(max_nodes=12), length=st.integers(0, 20))
def test_finite_walk_closed_form_matches_exact_fractions(lg, length):
    # the RW sample of an L-step walk: a response under the exact law u P^L
    g, labels = lg.graph, lg.labels.tolist()
    law = reference_walk_law(g, length)
    counts = [0] * g.node_count
    for u, v in g.edges.tolist():
        counts[u] += labels[v]
        counts[v] += labels[u]
    response = [Fraction(count, int(g.degrees[v]))
                for v, count in enumerate(counts)]
    mean = sum(p * r for p, r in zip(law, response))
    var = sum(p * r * r for p, r in zip(law, response)) - mean * mean
    walk = walk_law(g, length)
    bias, var1 = _exact(lg, "RW", walk)
    assert abs(bias - float(mean - Fraction(sum(labels), len(labels)))) \
        <= 1e-12
    assert abs(var1 - float(var)) <= 1e-12
    # the enumeration oracle steps the same walk in fractions
    assert brute_force_estimator_law(lg, "RW", walk) == (float(mean),
                                                         float(var))
    for kind in ("IP", "UN", "FN"):  # no walk, so the walk is ignored
        assert _exact(lg, kind, walk) == _exact(lg, kind)


def _check_lines(lg):
    """``{name: ok}`` of the lines ``nepoll check`` prints on ``lg``."""
    return {name: ok for name, ok, _ in
            run_report(lg.graph, lg.labels).invariants()}


@settings(max_examples=80, deadline=None)
@given(lg=labeled_graphs(max_nodes=12))
def test_check_lines_hold(lg):
    # among them the spectral sanity, paradox and dominance lines, the
    # walk-bias identity (covariance route and friend-label route within
    # 1e-12), each var1 within its bound with the spectral bound never
    # above the minimum-degree bound, and the closed forms against
    # enumeration
    lines = _check_lines(lg)
    assert all(lines.values()), lines
    assert 0.0 <= spectral_summary(lg.graph).lambda2 <= 1.0 + 1e-9


def mean_response_neighbor(lg):
    """Mean poll response of a random friend of a random node, weighting
    each node v by sum(1/d(u)) over its neighbors u."""
    w = lg.graph.adjacency_matvec(1.0 / lg.graph.degrees)
    return float(np.dot(w, lg.responses)) / lg.graph.node_count


def mean_response_neighbor_two_step(lg):
    """The same quantity by the other route: the mean over nodes of the
    average response in their neighborhood."""
    g = lg.graph
    return float((g.adjacency_matvec(lg.responses) / g.degrees).mean())


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs())
def test_neighbor_response_two_routes_agree(lg):
    assert abs(mean_response_neighbor(lg)
               - mean_response_neighbor_two_step(lg)) <= 1e-12
