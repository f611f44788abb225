import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from nepoll import (ConfigModelSpec, DataError, ErdosRenyiSpec, LabeledGraph,
                    brute_force_estimator_law, budget_threshold, build_graph,
                    configuration_model, erdos_renyi, error_bounds,
                    exact_error, friendship_paradox_check, graph_flags,
                    label_degree_covariance, mean_degree, mean_label_friend,
                    network_stats, respondent_law, run_report,
                    spectral_summary, stream, walk_law)
from nepoll import analytics

from _reference import walk_law as reference_walk_law
from _strategies import edge_lists, graphs, labeled_graphs


# ---------------------------------------------------------------------------
# network statistics

def test_network_stats_star(star_lg):
    stats = network_stats(star_lg)
    assert stats.assortativity == pytest.approx(-1.0, abs=1e-12)
    assert stats.degree_label_corr == pytest.approx(1.0, abs=1e-12)


def test_assortativity_matches_networkx():
    g = erdos_renyi(ErdosRenyiSpec(node_count=4000, edge_probability=0.003,
                                   seed=1))
    stats = network_stats(LabeledGraph(g, np.zeros(g.node_count, dtype=int)))
    reference = nx.degree_assortativity_coefficient(nx.Graph(g.edges.tolist()))
    assert stats.assortativity == pytest.approx(reference, rel=0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(lg=labeled_graphs())
def test_network_stats_correlations_in_range(lg):
    stats = network_stats(lg)
    degrees, labels = lg.graph.degrees, lg.labels
    regular = degrees.min() == degrees.max()
    assert (stats.assortativity is None) == regular
    assert (stats.degree_label_corr is None) == \
        (regular or labels.min() == labels.max())
    if stats.assortativity is not None:
        assert -1.0 - 1e-9 <= stats.assortativity <= 1.0 + 1e-9
    if stats.degree_label_corr is not None:
        assert -1.0 - 1e-9 <= stats.degree_label_corr <= 1.0 + 1e-9
        assert stats.degree_label_corr == pytest.approx(
            np.corrcoef(degrees, labels)[0, 1], rel=0, abs=1e-12)


def test_assortativity_undefined_on_regular(k3_lg):
    assert network_stats(k3_lg).assortativity is None


def test_degree_label_corr_undefined_on_constant_labels(star):
    stats = network_stats(LabeledGraph(star, [0, 0, 0, 0]))
    assert stats.degree_label_corr is None


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


def test_spectrum_triangle(k3):
    s = spectral_summary(k3)
    assert s.lambda2 == pytest.approx(0.5, abs=1e-12)
    assert s.top_residual <= 1e-12
    # the neighbor sets {1, 2}, {0, 2}, {0, 1} all differ
    assert (s.lambda_n, s.lambda_n_exact) == (0.0, False)


def test_spectrum_c5():
    c5 = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    s = spectral_summary(c5)
    assert s.lambda2 == pytest.approx(abs(math.cos(4 * math.pi / 5)),
                                      abs=1e-9)
    assert s.lambda2 == pytest.approx(0.8090, abs=5e-5)
    # every node has degree 2, but no two share a neighbor set
    assert not s.lambda_n_exact
    assert np.abs(_dense_spectrum(c5)).min() > 0.3


def test_spectrum_bipartite_star(star):
    s = spectral_summary(star)
    assert s.top_residual <= 1e-12
    assert s.lambda2 == 1.0
    # the leaves are twins: all three have the neighbor set {0}
    assert (s.lambda_n, s.lambda_n_exact) == (0.0, True)


def test_spectrum_disconnected(two_edges):
    # each component contributes a unit singular value
    assert spectral_summary(two_edges).lambda2 == 1.0


def test_twins_certify_lambda_n_zero():
    # nodes 0 and 1 share the neighbor set {2, 3} in a non-bipartite graph
    g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    s = spectral_summary(g)
    assert (s.lambda_n, s.lambda_n_exact) == (0.0, True)
    assert np.abs(_dense_spectrum(g)).min() <= 1e-12


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


_default_rng = np.random.default_rng


def _keys_set_to_one(rows):
    """A stand-in for the twin hash's generator: its key sets ``rows`` are
    all 1, so every two nodes of equal degree tie on those sums, and the
    others are drawn.  ``bounds`` collects the bound of each draw."""
    class Keys:
        bounds = []

        def __init__(self, seed):
            self.gen = _default_rng(seed)

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
        mp.setattr(analytics.np.random, "default_rng", first_tied)
        assert analytics._has_twins(g) == twins
        mp.setattr(analytics.np.random, "default_rng", both_tied)
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


@settings(max_examples=300, deadline=None)
@given(t=_tridiagonals())
@example(t=(np.array([0.3]), np.array([])))
@example(t=(np.array([0.5, -0.5]), np.array([0.25])))
@example(t=(np.array([0.0, 0.0]), np.array([0.7])))
def test_extreme_ritz_pair_matches_dense_eigh(t):
    a, b = t
    eps = np.finfo(float).eps
    theta, s_k = analytics._extreme_ritz_pair(a.tolist(), b.tolist())
    # test-only referee: the dense eigensolve the check replaces
    values, vectors = np.linalg.eigh(np.diag(a) + np.diag(b, 1)
                                     + np.diag(b, -1))
    norm = np.abs(values).max()
    # the referee's own error grows with k: 8 to 14 ulps of |T| at k = 50,
    # where mpmath puts the O(k) check within half an ulp
    assert abs(abs(theta) - norm) <= max(8, len(a) / 2) * eps * norm
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


def test_exact_error_rw_star(star_lg):
    assert _exact(star_lg, "RW") == pytest.approx((0.25, 0.25), abs=1e-12)
    assert _bounds(star_lg).rw_variance == pytest.approx(0.5, abs=1e-12)


def test_exact_error_rw_unbiased_on_regular(k3_lg):
    assert _exact(k3_lg, "RW")[0] == 0.0


def test_exact_error_un_star(star_lg):
    bias, var1 = _exact(star_lg, "UN")
    assert bias == pytest.approx(0.5, abs=1e-12)
    assert var1 == pytest.approx(0.1875, abs=1e-12)
    bound = _bounds(star_lg).un_variance
    assert bound == pytest.approx(0.75, abs=1e-12)
    assert var1 <= bound


def test_exact_error_un_c4_alternating(c4):
    bias, var1 = _exact(LabeledGraph(c4, [1, 0, 1, 0]), "UN")
    assert bias == pytest.approx(0.0, abs=1e-12)
    assert var1 == pytest.approx(0.25, abs=1e-12)


def test_exact_error_un_triangle(k3_lg):
    bias, var1 = _exact(k3_lg, "UN")
    assert bias == pytest.approx(0.0, abs=1e-12)
    assert var1 == pytest.approx(1 / 18, abs=1e-12)


def test_exact_error_fn_star(star_lg):
    bias, var1 = _exact(star_lg, "FN")
    assert bias == pytest.approx(0.0, abs=1e-12)
    assert var1 == pytest.approx(0.1875, abs=1e-12)
    assert bias ** 2 <= _bounds(star_lg).fn_bias_sq + 1e-12


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


def test_exact_error_fn_equals_un_on_regular(k3_lg):
    assert _exact(k3_lg, "FN") == pytest.approx(_exact(k3_lg, "UN"),
                                                abs=1e-12)


def test_exact_error_ip(star_lg):
    bias, var1 = _exact(star_lg, "IP")
    assert bias == 0.0
    assert var1 == pytest.approx(0.1875, abs=1e-12)


# ---------------------------------------------------------------------------
# budget threshold

def test_budget_threshold_star_non_positive(star_lg):
    t = budget_threshold(star_lg, spectral_summary(star_lg.graph).lambda2)
    assert t.non_positive
    assert t.value == pytest.approx(-5.0, abs=1e-9)


def test_budget_threshold_triangle_unbounded(k3_lg):
    t = budget_threshold(k3_lg, spectral_summary(k3_lg.graph).lambda2)
    assert t.unbounded
    assert not t.non_positive


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
    assert not t.non_positive and math.isfinite(t.value)
    f_bar = lg.true_fraction
    expected = ((f_bar * (1 - f_bar) - lam2 ** 2 * mean_label_friend(lg))
                * mean_degree(wheel) ** 2
                / label_degree_covariance(lg) ** 2)
    assert t.value == pytest.approx(expected, abs=1e-12)
    assert t.value == pytest.approx(342.9179606750062, abs=1e-9)


# ---------------------------------------------------------------------------
# paradox checks

def _paradox(g):
    return friendship_paradox_check(g, respondent_law(g, "FN"))


def test_paradox_star(star):
    c = _paradox(star)
    assert (c.mean_degree_uniform, c.mean_degree_friend) == (1.5, 2.0)
    assert c.mean_degree_neighbor == pytest.approx(2.5, abs=1e-12)
    assert c.holds


def test_paradox_regular_equality(k3):
    c = _paradox(k3)
    assert c.mean_degree_uniform == c.mean_degree_friend == 2.0
    assert c.mean_degree_neighbor == pytest.approx(2.0, abs=1e-12)
    assert c.holds


def test_paradox_path(path3):
    c = _paradox(path3)
    assert c.mean_degree_uniform == pytest.approx(4 / 3, abs=1e-12)
    assert c.mean_degree_friend == pytest.approx(1.5, abs=1e-12)
    assert c.mean_degree_neighbor == pytest.approx(5 / 3, abs=1e-12)
    assert c.holds


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


def test_fosd_star(star):
    assert _paradox(star).fosd_holds
    ks, cdf_uniform, cdf_neighbor = _degree_cdfs(star)
    assert ks == [1, 3]
    assert cdf_uniform == [0.75, 1.0]
    assert cdf_neighbor[0] == Fraction(1, 4)


def test_fosd_regular_equality(k3):
    assert _paradox(k3).fosd_holds
    _, cdf_uniform, cdf_neighbor = _degree_cdfs(k3)
    assert cdf_uniform == cdf_neighbor


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
    # among them the spectral sanity, paradox and dominance lines, and the
    # closed forms against enumeration
    lines = _check_lines(lg)
    assert all(lines.values()), lines
    assert 0.0 <= spectral_summary(lg.graph).lambda2 <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs())
def test_walk_bias_identity(lg):
    # covariance route and friend-label route agree within 1e-12
    assert _check_lines(lg)["walk_bias_identity"]


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs())
def test_variance_bounds_sound_and_ordered(lg):
    # each var1 within its bound (slack 1e-12), and the spectral bound
    # never above the minimum-degree bound
    lines = _check_lines(lg)
    assert lines["un_variance_within_bound"]
    assert lines["rw_variance_within_bound"]


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
