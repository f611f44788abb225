import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from nepoll import (AssortativityUndefinedError, DegreeLabelCorrUndefinedError,
                    ErdosRenyiSpec, LabeledGraph, RandomStream,
                    SpectrumNotConvergedError, build_graph, erdos_renyi,
                    brute_force_estimator_law, budget_threshold,
                    exact_error_fn, exact_error_ip, exact_error_rw,
                    exact_error_un, fosd_check, friendship_paradox_check,
                    graph_flags, label_degree_covariance, mean_degree,
                    mean_label_friend, network_stats, spectral_summary)
from nepoll import analytics

from _strategies import graphs, labeled_graphs


# ---------------------------------------------------------------------------
# network statistics

def test_network_stats_star(star_lg):
    stats = network_stats(star_lg)
    assert stats.assortativity == pytest.approx(-1.0, abs=1e-12)
    assert stats.degree_label_corr == pytest.approx(1.0, abs=1e-12)
    assert stats.harmonic_mean_degree == pytest.approx(1.2, abs=1e-12)
    assert stats.neighbor_harmonic_diag.tolist() == [1.0, 3.0, 3.0, 3.0]
    assert stats.sigma_q == pytest.approx(1.0, abs=1e-12)
    assert stats.sigma_f == pytest.approx(math.sqrt(0.1875), abs=1e-12)
    assert stats.degree_dist == {1: 0.75, 3: 0.25}
    assert stats.neighbor_degree_dist == {1: 0.5, 3: 0.5}
    assert stats.joint_neighbor_dist == {(3, 1): 0.5, (1, 3): 0.5}


def test_assortativity_matches_networkx():
    g = erdos_renyi(ErdosRenyiSpec(node_count=4000, edge_probability=0.003,
                                   seed=1))
    stats = network_stats(LabeledGraph(g, np.zeros(g.node_count, dtype=int)))
    reference = nx.degree_assortativity_coefficient(nx.Graph(g.edges.tolist()))
    assert stats.assortativity == pytest.approx(reference, rel=0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(lg=labeled_graphs())
def test_network_stats_distributions_normalize(lg):
    stats = network_stats(lg)
    n, big_m = lg.graph.node_count, lg.graph.edge_end_count
    assert math.fsum(stats.degree_dist.values()) == pytest.approx(1.0)
    assert math.fsum(stats.neighbor_degree_dist.values()) == pytest.approx(1.0)
    assert math.fsum(stats.joint_neighbor_dist.values()) == pytest.approx(1.0)
    for (k, kp), p in stats.joint_neighbor_dist.items():
        assert stats.joint_neighbor_dist[(kp, k)] == pytest.approx(p)
    for k, p in stats.degree_dist.items():
        assert stats.neighbor_degree_dist[k] == pytest.approx(
            k * p * n / big_m)
    if stats.sigma_q > 0:
        assert -1.0 - 1e-9 <= stats.assortativity <= 1.0 + 1e-9
    if stats.sigma_k > 0 and stats.sigma_f > 0:
        assert -1.0 - 1e-9 <= stats.degree_label_corr <= 1.0 + 1e-9


def test_assortativity_undefined_on_regular(k3_lg):
    stats = network_stats(k3_lg)
    with pytest.raises(AssortativityUndefinedError):
        stats.assortativity


def test_degree_label_corr_undefined_on_constant_labels(star):
    stats = network_stats(LabeledGraph(star, [0, 0, 0, 0]))
    with pytest.raises(DegreeLabelCorrUndefinedError):
        stats.degree_label_corr


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
    gen = RandomStream(seed).generator
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


def test_lanczos_that_does_not_converge_raises(monkeypatch):
    g = _sparse_random_graph(300, 600, seed=5)
    monkeypatch.setattr(analytics, "_LANCZOS_MAX_STEPS", 12)
    with pytest.raises(SpectrumNotConvergedError):
        spectral_summary(g)


def test_spectrum_above_the_old_dense_size_cap_matches_eigsh():
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh
    g = _sparse_random_graph(25_000, 100_000, seed=11)
    assert graph_flags(g).connected and not graph_flags(g).bipartite
    scale = 1.0 / np.sqrt(g.degrees.astype(float))
    rows = np.repeat(np.arange(g.node_count), g.degrees)
    mat = csr_matrix((scale[rows] * scale[g.neighbors], (rows, g.neighbors)),
                     shape=(g.node_count, g.node_count))
    vals = eigsh(mat, k=2, which="LM", tol=1e-12, return_eigenvectors=False,
                 v0=np.random.default_rng(0).random(g.node_count))
    s = spectral_summary(g)
    assert s.lambda2 == pytest.approx(np.sort(np.abs(vals))[0], abs=1e-9)
    assert s.top_residual <= 1e-9


@settings(max_examples=40, deadline=None)
@given(lg=labeled_graphs())
def test_spectrum_sanity(lg):
    s = spectral_summary(lg.graph)
    assert s.top_residual <= 1e-9
    assert 0.0 <= s.lambda2 <= 1.0 + 1e-9
    flags = graph_flags(lg.graph)
    assert (s.lambda2 < 1.0 - 1e-9) == (flags.connected
                                        and not flags.bipartite)


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
# closed-form error reports

def test_exact_error_rw_star(star_lg):
    r = exact_error_rw(star_lg, 1)
    assert r.bias == pytest.approx(0.25, abs=1e-12)
    assert r.variance_single_sample == pytest.approx(0.25, abs=1e-12)
    assert r.variance_upper_bound == pytest.approx(0.5, abs=1e-12)
    assert r.connected and r.bipartite


def test_exact_error_rw_unbiased_on_regular(k3_lg):
    assert exact_error_rw(k3_lg, 1).bias == 0.0


def test_exact_error_un_star(star_lg):
    r = exact_error_un(star_lg, 1)
    assert r.bias == pytest.approx(0.5, abs=1e-12)
    assert r.variance_single_sample == pytest.approx(0.1875, abs=1e-12)
    assert r.variance_upper_bound == pytest.approx(0.75, abs=1e-12)
    assert r.variance_single_sample <= r.variance_upper_bound


def test_exact_error_un_c4_alternating(c4):
    r = exact_error_un(LabeledGraph(c4, [1, 0, 1, 0]), 1)
    assert r.bias == pytest.approx(0.0, abs=1e-12)
    assert r.variance_single_sample == pytest.approx(0.25, abs=1e-12)


def test_exact_error_un_triangle(k3_lg):
    r = exact_error_un(k3_lg, 1)
    assert r.bias == pytest.approx(0.0, abs=1e-12)
    assert r.variance_single_sample == pytest.approx(1 / 18, abs=1e-12)


def test_exact_error_fn_star(star_lg):
    r = exact_error_fn(star_lg, 1)
    assert r.bias == pytest.approx(0.0, abs=1e-12)
    assert r.variance_single_sample == pytest.approx(0.1875, abs=1e-12)
    assert r.bias_sq_upper_bound is not None
    assert r.bias ** 2 <= r.bias_sq_upper_bound + 1e-12


def test_fn_bias_bound_reads_lambda_n_as_singular_value():
    # sound: the bound with the smallest singular value, on random graphs
    gen = RandomStream(2241).generator
    for _ in range(500):
        n = int(gen.integers(3, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if gen.random() < 0.4]
        if not pairs:
            continue
        g = build_graph(pairs)
        lg = LabeledGraph(g, gen.integers(0, 2, size=g.node_count))
        smallest_singular_value = np.abs(_dense_spectrum(g)).min()
        fn = exact_error_fn(lg, 1, lambda_n=smallest_singular_value)
        assert fn.bias ** 2 <= fn.bias_sq_upper_bound + 1e-12

    # unsound: the smallest eigenvalue, -1 on this bipartite path
    g = build_graph([(0, 3), (1, 2), (2, 3)])
    lg = LabeledGraph(g, [0, 1, 0, 0])
    a = np.zeros((4, 4))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a += a.T
    d = a.sum(axis=1)
    smallest_eigenvalue = np.linalg.eigvalsh(a / np.sqrt(np.outer(d, d)))[0]
    assert smallest_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    by_eigenvalue = exact_error_fn(lg, 1, lambda_n=smallest_eigenvalue)
    assert by_eigenvalue.bias ** 2 == pytest.approx(1 / 256, abs=1e-12)
    assert by_eigenvalue.bias_sq_upper_bound == pytest.approx(0.0, abs=1e-12)
    assert exact_error_fn(lg, 1).bias_sq_upper_bound >= 1 / 256


def test_exact_error_fn_equals_un_on_regular(k3_lg):
    fn = exact_error_fn(k3_lg, 3)
    un = exact_error_un(k3_lg, 3)
    assert fn.bias == pytest.approx(un.bias, abs=1e-12)
    assert fn.variance_single_sample == pytest.approx(
        un.variance_single_sample, abs=1e-12)


def test_exact_error_ip(star_lg):
    r = exact_error_ip(star_lg, 5)
    assert r.bias == 0.0
    assert r.variance_single_sample == pytest.approx(0.1875, abs=1e-12)
    assert r.variance_at_budget == pytest.approx(0.0375, abs=1e-12)


def test_report_budget_scaling_and_mse_identity(star_lg):
    for b in (1, 2, 10):
        r = exact_error_un(star_lg, b)
        assert r.variance_at_budget == r.variance_single_sample / b
        assert r.mse_at_budget == r.bias ** 2 + r.variance_at_budget


# ---------------------------------------------------------------------------
# budget threshold

def test_budget_threshold_star_non_positive(star_lg):
    t = budget_threshold(star_lg)
    assert t.non_positive
    assert t.value == pytest.approx(-5.0, abs=1e-9)


def test_budget_threshold_triangle_unbounded(k3_lg):
    t = budget_threshold(k3_lg)
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
    t = budget_threshold(lg)
    assert not t.non_positive and math.isfinite(t.value)
    f_bar = lg.true_fraction
    expected = ((f_bar * (1 - f_bar) - lam2 ** 2 * mean_label_friend(lg))
                * mean_degree(wheel) ** 2
                / label_degree_covariance(lg) ** 2)
    assert t.value == pytest.approx(expected, abs=1e-12)
    assert t.value == pytest.approx(342.9179606750062, abs=1e-9)


# ---------------------------------------------------------------------------
# paradox checks

def test_paradox_star(star):
    c = friendship_paradox_check(star)
    assert (c.mean_degree_uniform, c.mean_degree_friend) == (1.5, 2.0)
    assert c.mean_degree_neighbor == pytest.approx(2.5, abs=1e-12)
    assert c.holds


def test_paradox_regular_equality(k3):
    c = friendship_paradox_check(k3)
    assert c.mean_degree_uniform == c.mean_degree_friend == 2.0
    assert c.mean_degree_neighbor == pytest.approx(2.0, abs=1e-12)
    assert c.holds


def test_paradox_path(path3):
    c = friendship_paradox_check(path3)
    assert c.mean_degree_uniform == pytest.approx(4 / 3, abs=1e-12)
    assert c.mean_degree_friend == pytest.approx(1.5, abs=1e-12)
    assert c.mean_degree_neighbor == pytest.approx(5 / 3, abs=1e-12)
    assert c.holds


def test_fosd_star(star):
    f = fosd_check(star)
    assert f.holds
    assert f.degree_values.tolist() == [1, 3]
    assert f.cdf_uniform.tolist() == [0.75, 1.0]
    assert f.cdf_neighbor[0] == pytest.approx(0.25, abs=1e-12)


def test_fosd_regular_equality(k3):
    f = fosd_check(k3)
    assert f.holds
    assert np.allclose(f.cdf_uniform, f.cdf_neighbor, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(lg=labeled_graphs(max_nodes=12))
def test_paradox_and_fosd_universal(lg):
    assert friendship_paradox_check(lg.graph).holds
    assert fosd_check(lg.graph).holds


# ---------------------------------------------------------------------------
# brute-force oracle and equivalence

def test_brute_force_star_values(star_lg):
    assert brute_force_estimator_law(star_lg, "IP") == (0.25, 0.1875)
    assert brute_force_estimator_law(star_lg, "UN") == (0.75, 0.1875)
    assert brute_force_estimator_law(star_lg, "RW-stationary") == (0.5, 0.25)
    assert brute_force_estimator_law(star_lg, "FN") == (0.25, 0.1875)


def test_brute_force_unknown_kind(star_lg):
    with pytest.raises(ValueError):
        brute_force_estimator_law(star_lg, "XX")


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs())
def test_closed_forms_match_enumeration(lg):
    truth = lg.true_fraction
    cases = (("UN", exact_error_un(lg, 1)),
             ("RW-stationary", exact_error_rw(lg, 1, with_bound=False)),
             ("FN", exact_error_fn(lg, 1, with_bound=False)),
             ("IP", exact_error_ip(lg, 1)))
    for kind, report in cases:
        mean, var = brute_force_estimator_law(lg, kind)
        assert abs(report.bias - (mean - truth)) <= 1e-10
        assert abs(report.variance_single_sample - var) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs())
def test_walk_bias_identity(lg):
    # covariance route and friend-label route agree
    via_cov = label_degree_covariance(lg) / mean_degree(lg.graph)
    direct = mean_label_friend(lg) - lg.true_fraction
    assert abs(via_cov - direct) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(lg=labeled_graphs())
def test_variance_bounds_sound_and_ordered(lg):
    lam2 = spectral_summary(lg.graph).lambda2
    rw = exact_error_rw(lg, 1, lambda2=lam2)
    un = exact_error_un(lg, 1)
    assert rw.variance_single_sample <= rw.variance_upper_bound + 1e-12
    assert un.variance_single_sample <= un.variance_upper_bound + 1e-12
    # spectral bound never exceeds the minimum-degree bound
    assert rw.variance_upper_bound <= un.variance_upper_bound + 1e-12


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
