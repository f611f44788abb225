"""Exact error analysis and network statistics.

Everything here is closed-form: bias, single-sample variance and MSE of the
four polling estimators, the spectral and minimum-degree variance bounds,
degree correlations, the friendship-paradox and stochastic-dominance checks,
and a brute-force enumeration oracle that recomputes estimator moments from
first principles (exact rational arithmetic) for cross-validation.

All statistics are evaluated through sparse matrix-vector products on the
adjacency lists; only :func:`spectral_summary` densifies, under a size cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (AssortativityUndefinedError,
                     DegreeLabelCorrUndefinedError, SizeCapExceededError)
from .graph import Graph, LabeledGraph, graph_flags

SPECTRAL_SIZE_CAP = 20_000

_FLOAT_SLACK = 1e-12  # guards exact inequalities against rounding


# ---------------------------------------------------------------------------
# elementary moments

def mean_degree(g: Graph) -> float:
    """Mean degree of a uniform node, M/n."""
    return g.edge_end_count / g.node_count


def mean_label_friend(lg: LabeledGraph) -> float:
    """Mean label of a random friend: sum(d(v) f(v)) / M."""
    sdf = int(np.dot(lg.graph.degrees, lg.labels))
    return sdf / lg.graph.edge_end_count


def label_degree_covariance(lg: LabeledGraph) -> float:
    """cov(label, degree) of a uniform node, from exact integer sums.

    Computed as (n * sum(d f) - sum(d) sum(f)) / n^2 so that the covariance
    of a regular graph is exactly zero.
    """
    g = lg.graph
    n = g.node_count
    sdf = int(np.dot(g.degrees, lg.labels))
    sd = g.edge_end_count
    sf = int(lg.labels.sum())
    return (n * sdf - sd * sf) / (n * n)


def neighbor_weights(g: Graph) -> np.ndarray:
    """Per-node weight sum(1/d(u)) over neighbors u; divided by n this is
    the probability that a uniform node's uniform neighbor lands on v."""
    return g.adjacency_matvec(1.0 / g.degrees)


def mean_label_neighbor(lg: LabeledGraph) -> float:
    """Mean label of a random friend of a random node."""
    w = neighbor_weights(lg.graph)
    return float(np.dot(w, lg.labels)) / lg.graph.node_count


def mean_response_neighbor(lg: LabeledGraph) -> float:
    """Mean poll response of a random friend of a random node."""
    w = neighbor_weights(lg.graph)
    return float(np.dot(w, lg.responses)) / lg.graph.node_count


def mean_response_neighbor_two_step(lg: LabeledGraph) -> float:
    """Same quantity by the other route: the mean over nodes of the average
    response in their neighborhood.  Used as a cross-check."""
    g = lg.graph
    avg_of_responses = g.adjacency_matvec(lg.responses) / g.degrees
    return float(avg_of_responses.mean())


# ---------------------------------------------------------------------------
# network statistics

@dataclass(frozen=True)
class NetworkStats:
    """Degree/label distributions and correlation statistics.

    ``assortativity`` and ``degree_label_corr`` raise when their
    denominators vanish (regular graph, or constant labels) rather than
    silently returning zero.
    """

    degree_dist: dict[int, float]
    neighbor_degree_dist: dict[int, float]
    joint_neighbor_dist: dict[tuple[int, int], float]
    sigma_q: float
    sigma_k: float
    sigma_f: float
    harmonic_mean_degree: float
    neighbor_harmonic_diag: np.ndarray
    degree_degree_cov: float
    degree_label_cov: float

    @property
    def assortativity(self) -> float:
        if self.sigma_q == 0.0:
            raise AssortativityUndefinedError(
                "degree-degree correlation undefined: the neighbor-degree "
                "distribution is degenerate (regular graph)")
        return self.degree_degree_cov / (self.sigma_q ** 2)

    @property
    def degree_label_corr(self) -> float:
        if self.sigma_k == 0.0 or self.sigma_f == 0.0:
            raise DegreeLabelCorrUndefinedError(
                "degree-label correlation undefined: zero variance in "
                f"degrees (sigma={self.sigma_k}) or labels "
                f"(sigma={self.sigma_f})")
        return self.degree_label_cov / (self.sigma_k * self.sigma_f)


def network_stats(lg: LabeledGraph) -> NetworkStats:
    """Compute every distributional statistic by exact enumeration over
    nodes and edge endpoints."""
    g = lg.graph
    n, big_m = g.node_count, g.edge_end_count
    degrees = g.degrees

    counts = np.bincount(degrees)
    ks = np.flatnonzero(counts)
    degree_dist = {int(k): float(counts[k] / n) for k in ks}
    # degree-biased marginal: q(k) = k P(k) n / M
    neighbor_degree_dist = {int(k): float(k * counts[k] / big_m) for k in ks}

    joint: dict[tuple[int, int], float] = {}
    unit = 1.0 / big_m
    for u, v in g.edges:
        du, dv = int(degrees[u]), int(degrees[v])
        joint[(du, dv)] = joint.get((du, dv), 0.0) + unit
        joint[(dv, du)] = joint.get((dv, du), 0.0) + unit

    mu_q = math.fsum(k * p for k, p in neighbor_degree_dist.items())
    ex2_q = math.fsum(k * k * p for k, p in neighbor_degree_dist.items())
    sigma_q = math.sqrt(max(ex2_q - mu_q * mu_q, 0.0))

    mu_k = big_m / n
    ex2_k = float(np.dot(degrees, degrees)) / n
    sigma_k = math.sqrt(max(ex2_k - mu_k * mu_k, 0.0))

    f_bar = lg.true_fraction
    sigma_f = math.sqrt(max(f_bar - f_bar * f_bar, 0.0))

    sum_kk = math.fsum(k * kp * p for (k, kp), p in joint.items())
    degree_degree_cov = sum_kk - mu_q * mu_q

    w = neighbor_weights(g)
    harmonic = degrees / w

    return NetworkStats(
        degree_dist=degree_dist,
        neighbor_degree_dist=neighbor_degree_dist,
        joint_neighbor_dist=joint,
        sigma_q=sigma_q,
        sigma_k=sigma_k,
        sigma_f=sigma_f,
        harmonic_mean_degree=n / float(np.sum(1.0 / degrees)),
        neighbor_harmonic_diag=harmonic,
        degree_degree_cov=degree_degree_cov,
        degree_label_cov=label_degree_covariance(lg),
    )


# ---------------------------------------------------------------------------
# spectrum of the normalized adjacency matrix

@dataclass(frozen=True)
class SpectralSummary:
    """Singular values of D^{-1/2} A D^{-1/2}, sorted descending.

    The matrix is symmetric, so singular values are absolute eigenvalues.
    ``lambda2`` (second largest) measures expansion; ``lambda_n`` is the
    smallest.
    """

    singular_values: np.ndarray
    lambda2: float
    lambda_n: float


def spectral_summary(g: Graph, *,
                     size_cap: int = SPECTRAL_SIZE_CAP) -> SpectralSummary:
    n = g.node_count
    if n > size_cap:
        raise SizeCapExceededError(
            f"dense spectral decomposition capped at {size_cap} nodes, "
            f"graph has {n}")
    scale = 1.0 / np.sqrt(g.degrees.astype(float))
    mat = np.zeros((n, n))
    for v in range(n):
        nbrs = g.neighbors_of(v)
        mat[v, nbrs] = scale[v] * scale[nbrs]
    eigs = np.linalg.eigvalsh(mat)
    sv = np.sort(np.abs(eigs))[::-1]
    return SpectralSummary(singular_values=sv, lambda2=float(sv[1]),
                           lambda_n=float(sv[-1]))


# ---------------------------------------------------------------------------
# closed-form estimator error reports

@dataclass(frozen=True)
class ErrorReport:
    """Closed-form single-sample moments of one estimator at one budget.

    ``variance_at_budget`` is ``variance_single_sample / budget`` (samples
    are independent), and ``mse_at_budget`` is bias^2 plus that.
    ``variance_upper_bound`` is the single-sample bound where one exists
    (spectral bound for RW, minimum-degree bound for UN);
    ``bias_sq_upper_bound`` is the spectral bias bound of the FN estimate.
    ``connected``/``bipartite`` carry walk-applicability metadata on the RW
    report.
    """

    estimator_kind: str
    budget: int
    bias: float
    variance_single_sample: float
    variance_upper_bound: float | None = None
    bias_sq_upper_bound: float | None = None
    connected: bool | None = None
    bipartite: bool | None = None

    @property
    def variance_at_budget(self) -> float:
        return self.variance_single_sample / self.budget

    @property
    def mse_at_budget(self) -> float:
        return self.bias * self.bias + self.variance_at_budget


def _finish(kind: str, budget: int, bias: float, var1: float,
            **extra) -> ErrorReport:
    return ErrorReport(estimator_kind=kind, budget=int(budget), bias=bias,
                       variance_single_sample=var1, **extra)


def exact_error_ip(lg: LabeledGraph, budget: int) -> ErrorReport:
    """Intent polling is unbiased with single-sample variance f(1-f)."""
    f_bar = lg.true_fraction
    return _finish("IP", budget, 0.0, f_bar - f_bar * f_bar)


def exact_error_un(lg: LabeledGraph, budget: int) -> ErrorReport:
    """Uniform-respondent poll: bias is the neighbor-label excess, variance
    is the response variance over uniform nodes, bounded by
    E{f(friend)} E{d} / d_min."""
    q = lg.responses
    mean_q = float(q.mean())
    var1 = float(np.dot(q, q)) / lg.graph.node_count - mean_q * mean_q
    bias = mean_q - lg.true_fraction
    bound = mean_label_friend(lg) * mean_degree(lg.graph) / lg.graph.min_degree
    return _finish("UN", budget, bias, var1, variance_upper_bound=bound)


def exact_error_rw(lg: LabeledGraph, budget: int, *,
                   lambda2: float | None = None,
                   with_bound: bool = True) -> ErrorReport:
    """Long-walk poll: respondents follow the degree-weighted law.

    Bias equals cov(label, degree)/E{d} = E{f(friend)} - f_bar.  The
    single-sample variance is the response variance under the
    degree-weighted law, bounded by lambda2^2 E{f(friend)}.  Pass a
    precomputed ``lambda2`` to skip the dense decomposition, or
    ``with_bound=False`` to omit the bound.
    """
    g = lg.graph
    q = lg.responses
    ef_friend = mean_label_friend(lg)
    bias = ef_friend - lg.true_fraction
    weights = g.degrees / g.edge_end_count
    var1 = float(np.dot(weights, q * q)) - ef_friend * ef_friend
    bound = None
    if with_bound:
        if lambda2 is None:
            lambda2 = spectral_summary(g).lambda2
        bound = lambda2 * lambda2 * ef_friend
    flags = graph_flags(g)
    return _finish("RW", budget, bias, var1, variance_upper_bound=bound,
                   connected=flags.connected, bipartite=flags.bipartite)


def exact_error_fn(lg: LabeledGraph, budget: int, *,
                   lambda_n: float | None = None,
                   with_bound: bool = True) -> ErrorReport:
    """Friend-of-node poll: respondents follow the uniform-neighbor law.

    Bias is E{q(friend-of-node)} - f_bar; the bias-squared bound
    (lambda_n^2 - 1)^2 E{f(friend)} E{d} / harmonic-mean-degree is reported
    alongside.
    """
    g = lg.graph
    n = g.node_count
    q = lg.responses
    w = neighbor_weights(g)
    eq = float(np.dot(w, q)) / n
    eq2 = float(np.dot(w, q * q)) / n
    bias = eq - lg.true_fraction
    var1 = eq2 - eq * eq
    bound = None
    if with_bound:
        if lambda_n is None:
            lambda_n = spectral_summary(g).lambda_n
        d_hm = n / float(np.sum(1.0 / g.degrees))
        bound = ((lambda_n * lambda_n - 1.0) ** 2 * mean_label_friend(lg)
                 * mean_degree(g) / d_hm)
    return _finish("FN", budget, bias, var1, bias_sq_upper_bound=bound)


# ---------------------------------------------------------------------------
# budget threshold under which the walk poll beats intent polling

@dataclass(frozen=True)
class BudgetThreshold:
    """Largest budget for which the walk poll's MSE bound stays below the
    intent-polling MSE.

    ``value`` is +inf when the comparison holds for every budget (zero
    label-degree covariance with a favorable spectral bound);
    ``non_positive`` marks a vacuous bound (negative numerator, e.g. when
    lambda2 = 1).
    """

    value: float
    non_positive: bool

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value) and self.value > 0


def budget_threshold(lg: LabeledGraph, *,
                     lambda2: float | None = None) -> BudgetThreshold:
    if lambda2 is None:
        lambda2 = spectral_summary(lg.graph).lambda2
    f_bar = lg.true_fraction
    var_f = f_bar - f_bar * f_bar
    numerator = (var_f - lambda2 * lambda2 * mean_label_friend(lg)) \
        * mean_degree(lg.graph) ** 2
    cov = label_degree_covariance(lg)
    if cov == 0.0:
        if numerator >= 0.0:
            return BudgetThreshold(value=math.inf, non_positive=False)
        return BudgetThreshold(value=-math.inf, non_positive=True)
    value = numerator / (cov * cov)
    return BudgetThreshold(value=value, non_positive=value <= 0.0)


# ---------------------------------------------------------------------------
# friendship-paradox checks

class ParadoxCheck(NamedTuple):
    mean_degree_uniform: float
    mean_degree_friend: float
    mean_degree_neighbor: float
    holds: bool


def friendship_paradox_check(g: Graph) -> ParadoxCheck:
    """Exact mean degrees of the three node laws, and whether both
    friend laws dominate the uniform one (they always should)."""
    mean_x = mean_degree(g)
    mean_y = float(np.dot(g.degrees, g.degrees)) / g.edge_end_count
    w = neighbor_weights(g)
    mean_z = float(np.dot(w, g.degrees)) / g.node_count
    slack = _FLOAT_SLACK * max(mean_x, 1.0)
    holds = mean_y >= mean_x - slack and mean_z >= mean_x - slack
    return ParadoxCheck(mean_x, mean_y, mean_z, holds)


@dataclass(frozen=True)
class FosdCheck:
    """Pointwise CDF comparison between the degree of a uniform node and
    the degree of a uniform neighbor of a uniform node."""

    holds: bool
    degree_values: np.ndarray
    cdf_uniform: np.ndarray
    cdf_neighbor: np.ndarray


def fosd_check(g: Graph) -> FosdCheck:
    n = g.node_count
    counts = np.bincount(g.degrees)
    ks = np.flatnonzero(counts)
    p_x = counts[ks] / n
    w = neighbor_weights(g)
    mass_z = np.bincount(g.degrees, weights=w, minlength=len(counts))
    p_z = mass_z[ks] / n
    cdf_x = np.cumsum(p_x)
    cdf_z = np.cumsum(p_z)
    holds = bool(np.all(cdf_z <= cdf_x + _FLOAT_SLACK))
    return FosdCheck(holds=holds, degree_values=ks.astype(np.int64),
                     cdf_uniform=cdf_x, cdf_neighbor=cdf_z)


# ---------------------------------------------------------------------------
# brute-force oracle

BRUTE_FORCE_KINDS = ("IP", "UN", "RW-stationary", "FN")


def brute_force_estimator_law(lg: LabeledGraph,
                              kind: str) -> tuple[float, float]:
    """Exact single-sample mean and variance by full enumeration.

    Walks the sampling law definition with rational arithmetic and plain
    Python loops, independent of the vectorized closed forms above, so it
    can referee them.  Intended for small graphs (a few hundred nodes).
    """
    if kind == "RW":
        kind = "RW-stationary"
    if kind not in BRUTE_FORCE_KINDS:
        raise ValueError(f"unknown estimator law {kind!r}")
    g = lg.graph
    n = g.node_count
    labels = [int(x) for x in lg.labels]
    adj = [[int(u) for u in g.neighbors_of(v)] for v in range(n)]

    def response(v: int) -> Fraction:
        return Fraction(sum(labels[u] for u in adj[v]), len(adj[v]))

    outcomes: list[tuple[Fraction, Fraction]] = []  # (probability, value)
    if kind == "IP":
        p = Fraction(1, n)
        outcomes = [(p, Fraction(labels[v])) for v in range(n)]
    elif kind == "UN":
        p = Fraction(1, n)
        outcomes = [(p, response(v)) for v in range(n)]
    elif kind == "RW-stationary":
        m = sum(len(a) for a in adj)
        outcomes = [(Fraction(len(adj[v]), m), response(v))
                    for v in range(n)]
    elif kind == "FN":
        for v in range(n):
            p = Fraction(1, n * len(adj[v]))
            for u in adj[v]:
                outcomes.append((p, response(u)))

    mean = sum((p * val for p, val in outcomes), Fraction(0))
    second = sum((p * val * val for p, val in outcomes), Fraction(0))
    var = second - mean * mean
    return float(mean), float(var)
