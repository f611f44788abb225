"""Exact error analysis and network statistics.

Everything here is closed-form.  ``exact_error(lg, kind, law)`` gives the
bias and single-sample variance of each of the four polling estimators,
the moments of its respondents' node law ``law``, and ``error_bounds``
the paper's spectral and minimum-degree bounds on them.
Alongside: the budget threshold under which the walk poll beats intent
polling, degree correlations, the spectrum of the normalized adjacency
matrix, the friendship-paradox and stochastic-dominance checks, and a
brute-force enumeration oracle that recomputes each estimator's law from
first principles (exact rational arithmetic) to referee the closed forms.

All statistics are evaluated through ``Graph.adjacency_matvec``, the
product with the adjacency matrix over the edge list, the spectrum
included: nothing builds an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .estimators import estimator_code, respondent_law
from .graph import Graph, LabeledGraph, graph_flags
from .sampling import WalkLaw

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


# ---------------------------------------------------------------------------
# network statistics

@dataclass(frozen=True)
class NetworkStats:
    """Degree-degree and degree-label correlations, from their covariances
    and standard deviations: ``sigma_q`` of the degree at a random edge
    end, ``sigma_k`` of a uniform node's degree, ``sigma_f`` of its label.

    ``assortativity`` and ``degree_label_corr`` are None when their
    denominators vanish (regular graph, or constant labels) rather than
    silently zero.
    """

    sigma_q: float
    sigma_k: float
    sigma_f: float
    degree_degree_cov: float
    degree_label_cov: float

    @property
    def assortativity(self) -> float | None:
        if self.sigma_q == 0.0:
            return None
        return self.degree_degree_cov / (self.sigma_q ** 2)

    @property
    def degree_label_corr(self) -> float | None:
        if self.sigma_k == 0.0 or self.sigma_f == 0.0:
            return None
        return self.degree_label_cov / (self.sigma_k * self.sigma_f)


def network_stats(lg: LabeledGraph) -> NetworkStats:
    """Compute the statistics from degree counts over nodes and edge
    endpoints."""
    g = lg.graph
    n, big_m = g.node_count, g.edge_end_count
    degrees = g.degrees

    counts = np.bincount(degrees)
    ks = np.flatnonzero(counts)
    # degree-biased marginal: q(k) = k P(k) n / M
    q = ks * counts[ks] / big_m
    mu_q = math.fsum(ks * q)
    ex2_q = math.fsum(ks * ks * q)
    sigma_q = math.sqrt(max(ex2_q - mu_q * mu_q, 0.0))

    mu_k = big_m / n
    ex2_k = float(np.dot(degrees, degrees)) / n
    sigma_k = math.sqrt(max(ex2_k - mu_k * mu_k, 0.0))

    f_bar = lg.true_fraction
    sigma_f = math.sqrt(max(f_bar - f_bar * f_bar, 0.0))

    # E{d d'} over ordered edge ends: 2 sum_edges d(u) d(v) / M, exactly
    du, dv = degrees[g.edges[:, 0]], degrees[g.edges[:, 1]]
    degree_degree_cov = 2 * int(np.dot(du, dv)) / big_m - mu_q * mu_q

    return NetworkStats(
        sigma_q=sigma_q, sigma_k=sigma_k, sigma_f=sigma_f,
        degree_degree_cov=degree_degree_cov,
        degree_label_cov=label_degree_covariance(lg))


# ---------------------------------------------------------------------------
# spectrum of the normalized adjacency matrix

_SPECTRUM_SEED = 0          # Lanczos start vector and twin-hash keys
_LANCZOS_MAX_STEPS = 3000   # bounds the dense k x k eigensolve of T


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme singular values of N = D^{-1/2} A D^{-1/2}, the absolute
    eigenvalues of the symmetric N.  The largest is 1, with eigenvector
    u = sqrt(d) / |sqrt(d)|; ``top_residual`` is |N u - u|_inf.
    ``lambda2`` (second largest) measures expansion.  ``lambda_n`` is the
    smallest singular value, not eigenvalue: the FN bias bound needs
    1 - lambda_n^2 = max |mu^2 - 1| over the eigenvalues mu of N, which
    the eigenvalue -1 of a bipartite graph would make 0.  It is reported
    as 0.0, a lower bound that keeps that bound sound since
    (lambda^2 - 1)^2 <= 1, and exact (``lambda_n_exact``) when two nodes
    share a neighbor set, which makes A singular."""

    lambda2: float
    lambda_n: float
    lambda_n_exact: bool
    top_residual: float


def spectral_summary(g: Graph) -> SpectralSummary:
    """lambda2 is 1.0 if disconnected or bipartite, else from Lanczos."""
    root = np.sqrt(g.degrees.astype(float))

    def matvec(x: np.ndarray) -> np.ndarray:
        return g.adjacency_matvec(x / root) / root

    u = root / np.linalg.norm(root)
    flags = graph_flags(g)
    lambda2 = (_lanczos_largest_abs(matvec, u)
               if flags.connected and not flags.bipartite else 1.0)
    return SpectralSummary(
        lambda2=lambda2, lambda_n=0.0, lambda_n_exact=_has_twins(g),
        top_residual=float(np.abs(matvec(u) - u).max()))


def _lanczos_largest_abs(matvec, u: np.ndarray) -> float:
    """Largest |eigenvalue| on the complement of the unit eigenvector
    ``u``, by three-term Lanczos: extreme Ritz values stay accurate as
    orthogonality is lost (Paige, 1976), so only the tridiagonal T is
    kept.  Its O(k^3) eigensolve runs every k/8 steps, until the
    largest-|theta| Ritz pair has residual |beta s_k| <= 1e-10 |theta|."""
    q = np.random.default_rng(_SPECTRUM_SEED).standard_normal(len(u))
    q -= u * (u @ q)
    q /= np.linalg.norm(q)
    q_prev = np.zeros_like(q)
    alphas, betas = [], []
    beta, next_check = 0.0, 8
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        z = matvec(q)
        z -= u * (u @ z)
        alpha = float(q @ z)
        z -= alpha * q + beta * q_prev
        beta = float(np.linalg.norm(z))
        alphas.append(alpha)
        betas.append(beta)
        if k >= next_check or k == _LANCZOS_MAX_STEPS or beta < 1e-8:
            off = np.diag(betas[:-1], 1)
            theta, s = np.linalg.eigh(np.diag(alphas) + off + off.T)
            i = int(np.argmax(np.abs(theta)))
            if beta * abs(s[-1, i]) <= 1e-10 * abs(theta[i]):
                return float(abs(theta[i]))
            next_check = k + max(8, k // 8)
        q_prev, q = q, z / beta
    raise DataError(
        f"lambda2: Lanczos did not converge in {_LANCZOS_MAX_STEPS} steps")


def _has_twins(g: Graph) -> bool:
    """Whether two nodes have the same neighbor set.  Sums of two random
    64-bit keys over each set pick the candidates; only equal sorted
    neighbor slices certify, so a hash collision cannot."""
    keys = np.random.default_rng(_SPECTRUM_SEED).integers(
        0, 2 ** 64, size=(2, g.node_count), dtype=np.uint64)
    # wrapping integer sums: twins get equal sums in any order, which a
    # rounded float sum through ``adjacency_matvec`` would not promise
    sums = np.add.reduceat(keys[:, g.neighbors], g.indptr[:-1], axis=1)
    order = np.lexsort(sums)
    same = (np.diff(sums[:, order], axis=1) == 0).all(axis=0)
    return any(np.array_equal(g.neighbors_of(order[i]),
                              g.neighbors_of(order[i + 1]))
               for i in np.flatnonzero(same).tolist())


# ---------------------------------------------------------------------------
# closed-form estimator errors

def exact_error(lg: LabeledGraph, kind: str,
                law: np.ndarray) -> tuple[float, float]:
    """Exact ``(bias, var1)`` of one ``kind`` sample: its mean minus the
    true fraction f_bar, and its variance.  A poll of budget b averages b
    independent samples, so its variance is ``var1 / b`` and its MSE
    ``bias * bias + var1 / b``.

    The sample is a label (IP) or a poll response (the other kinds) of a
    node drawn from the node law ``law``, the ``kind`` respondents' law
    ``respondent_law(lg.graph, kind, walk)`` that the sweep also samples:
    the moments are that table's under those weights, divided by their
    sum.  So IP is unbiased with var1 = f_bar (1 - f_bar), and RW without
    a walk takes the degree-weighted law d/M that a long walk reaches
    (bias cov(label, degree)/E{d} = E{f(friend)} - f_bar).  A law over
    another number of nodes raises ``DataError``.
    """
    estimator_code(kind)
    if len(law) != lg.graph.node_count:
        raise DataError("the respondent law is not over the graph's nodes")
    table = lg.labels if kind == "IP" else lg.responses
    total = float(law.sum())
    mean = float(np.dot(law, table)) / total
    second = float(np.dot(law, table * table)) / total
    return mean - lg.true_fraction, second - mean * mean


class ErrorBounds(NamedTuple):
    """The paper's bounds on the single-sample errors of :func:`exact_error`.

    ``un_variance`` = E{f(friend)} E{d} / d_min bounds the UN var1;
    ``rw_variance`` = lambda2^2 E{f(friend)} bounds the RW var1;
    ``fn_bias_sq`` = (lambda_n^2 - 1)^2 E{f(friend)} E{d} / harmonic-mean
    degree bounds the squared FN bias, which is
    ((D^{-1/2} 1)' (N^2 - I) D^{1/2} f / n)^2 with N = D^{-1/2} A D^{-1/2}
    (Cauchy-Schwarz), for ``lambda_n`` the smallest singular value of N
    (see :class:`SpectralSummary`).
    """

    un_variance: float
    rw_variance: float
    fn_bias_sq: float


def error_bounds(lg: LabeledGraph, lambda2: float,
                 lambda_n: float) -> ErrorBounds:
    """The bounds at the extreme singular values of N, as
    :func:`spectral_summary` reports them."""
    g = lg.graph
    ef_friend = mean_label_friend(lg)
    d_hm = g.node_count / float(np.sum(1.0 / g.degrees))
    return ErrorBounds(
        un_variance=ef_friend * mean_degree(g) / g.min_degree,
        rw_variance=lambda2 * lambda2 * ef_friend,
        fn_bias_sq=((lambda_n * lambda_n - 1.0) ** 2 * ef_friend
                    * mean_degree(g) / d_hm))


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


def budget_threshold(lg: LabeledGraph, lambda2: float) -> BudgetThreshold:
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
    fosd_holds: bool


def friendship_paradox_check(g: Graph) -> ParadoxCheck:
    """Exact mean degrees of the three node laws, whether both friend
    laws dominate the uniform one (they always should), and whether the
    degree of a uniform neighbor of a uniform node dominates a uniform
    node's degree in first order: its CDF lies at or below the uniform
    one at every degree."""
    neighbor = respondent_law(g, "FN")
    mean_x = mean_degree(g)
    mean_y = float(np.dot(g.degrees, g.degrees)) / g.edge_end_count
    mean_z = float(np.dot(neighbor, g.degrees))
    slack = _FLOAT_SLACK * max(mean_x, 1.0)
    holds = mean_y >= mean_x - slack and mean_z >= mean_x - slack
    counts = np.bincount(g.degrees)
    ks = np.flatnonzero(counts)
    cdf_x = np.cumsum(counts[ks] / g.node_count)
    cdf_z = np.cumsum(np.bincount(g.degrees, weights=neighbor,
                                  minlength=len(counts))[ks])
    return ParadoxCheck(mean_x, mean_y, mean_z, holds,
                        bool(np.all(cdf_z <= cdf_x + _FLOAT_SLACK)))


# ---------------------------------------------------------------------------
# brute-force oracle

def brute_force_estimator_law(lg: LabeledGraph, kind: str,
                              walk: WalkLaw | None = None
                              ) -> tuple[float, float]:
    """Exact single-sample mean and variance by full enumeration, for the
    ``walk`` that :func:`exact_error` takes.

    Steps the law of a walk from a uniform node in rational arithmetic
    and plain Python loops, independent of the vectorized closed forms
    above, so it can referee them: L = 0 steps for ``IP`` and ``UN``, 1
    for ``FN`` and ``walk.length`` for ``RW``, whose stationary law d/M
    stands in for a missing walk.  Intended for small graphs: on 200
    nodes an 80-step walk takes about half a second.
    """
    estimator_code(kind)
    if kind == "RW":
        steps = None if walk is None else walk.length
    else:
        steps = 1 if kind == "FN" else 0
    g = lg.graph
    n = g.node_count
    labels = [int(x) for x in lg.labels]
    adj = [[int(u) for u in g.neighbors_of(v)] for v in range(n)]

    if steps is None:  # RW without a walk: the stationary law
        m = sum(len(a) for a in adj)
        law = [Fraction(len(a), m) for a in adj]
    else:
        law = [Fraction(1, n)] * n
        for _ in range(steps):
            moved = [Fraction(0)] * n
            for v, a in enumerate(adj):
                share = law[v] / len(a)
                for u in a:
                    moved[u] += share
            law = moved
    values = [Fraction(labels[v]) if kind == "IP"
              else Fraction(sum(labels[u] for u in a), len(a))
              for v, a in enumerate(adj)]
    mean = sum((p * x for p, x in zip(law, values)), Fraction(0))
    second = sum((p * x * x for p, x in zip(law, values)), Fraction(0))
    return float(mean), float(second - mean * mean)
