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
from .estimators import estimator_code
from .graph import Graph, LabeledGraph, degree_product_sum, graph_flags
from .sampling import WalkLaw, node_law, stream

_FLOAT_SLACK = 1e-12  # guards exact inequalities against rounding


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by numpy's own pairwise sum.  BLAS kernels each sum a dot
    product in their own order, so this keeps every float the same on
    every kernel."""
    return float(np.add.reduce(x * y))


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

def assortativity_curve(degrees: np.ndarray):
    """The degree-degree correlation r_kk (Newman, 2002) of any graph with
    this degree sequence, as a function ``corr(s)`` of s = sum over edges of
    d(u) d(v), the one term that degree-preserving swaps move; None for a
    regular sequence, whose degree variance at an edge end vanishes."""
    big_m = int(degrees.sum())
    m = big_m // 2
    d = degrees.astype(float)
    # mean and variance of the degree at a random edge end
    mu_q = _dot(d, d) / big_m
    sigma2_q = _dot(d * d, d) / big_m - mu_q * mu_q
    if sigma2_q <= 0.0:
        return None

    def corr(s):
        return (s / m - mu_q * mu_q) / sigma2_q
    return corr


def degree_label_curve(degrees: np.ndarray, ones: int):
    """The correlation rho of a uniform node's degree and label, for this
    degree sequence and ``ones`` nodes labeled 1, as a function ``corr(s)``
    of s = sum of d(v) f(v), the one term that label swaps move; None for
    a regular sequence or constant labels."""
    n = len(degrees)
    mu_d = int(degrees.sum()) / n
    sigma_k = math.sqrt(max(float(np.dot(degrees, degrees)) / n
                            - mu_d * mu_d, 0.0))
    if sigma_k == 0.0 or ones == 0 or ones == n:
        return None
    f_bar = ones / n
    sigma_f = math.sqrt(f_bar * (1.0 - f_bar))

    def corr(s):
        return (s / n - mu_d * f_bar) / (sigma_k * sigma_f)
    return corr


def assortativity(g: Graph) -> float | None:
    """The degree-degree correlation r_kk: :func:`assortativity_curve` at
    the graph's sum of degree products over edges, so on a generated graph
    it is the float its swaps stopped on.  None on a regular graph, whose
    denominator vanishes, rather than silently zero."""
    corr = assortativity_curve(g.degrees)
    return None if corr is None else corr(degree_product_sum(g))


def degree_label_corr(lg: LabeledGraph) -> float | None:
    """The degree-label correlation rho: :func:`degree_label_curve` at the
    graph's sum of degree times label over nodes, the float the label
    swaps stopped on.  None on a regular graph or constant labels."""
    degrees = lg.graph.degrees
    corr = degree_label_curve(degrees, int(lg.labels.sum()))
    return None if corr is None else corr(int(np.dot(degrees, lg.labels)))


# ---------------------------------------------------------------------------
# spectrum of the normalized adjacency matrix

_SPECTRUM_SEED = 0          # Lanczos start vector and twin-hash keys
_LANCZOS_MAX_STEPS = 3000   # bounds the products with N, one per step
_PIVOT_FLOOR = 2.0 ** -104  # eps^2, on T scaled to |T| <= 1


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

    u = root / math.sqrt(g.edge_end_count)  # |sqrt(d)|^2 = M
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
    kept.  At each check :func:`_extreme_ritz_pair` finds T's
    largest-|theta| Ritz value and the last component s_k of its vector
    in O(k), until the residual |beta s_k| <= 1e-10 |theta|.  The next
    check comes k/8 steps on, or where the residual, falling at the rate
    it fell since the last check, meets that bound, but at most k/4
    steps on."""
    q = stream(_SPECTRUM_SEED).standard_normal(len(u))
    q -= u * _dot(u, q)
    q /= math.sqrt(_dot(q, q))
    q_prev = np.zeros_like(q)
    alphas, betas = [], []
    beta, next_check, last = 0.0, 8, None
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        z = matvec(q)
        z -= u * _dot(u, z)
        alpha = _dot(q, z)
        z -= alpha * q + beta * q_prev
        beta = math.sqrt(_dot(z, z))
        alphas.append(alpha)
        betas.append(beta)
        if k >= next_check or k == _LANCZOS_MAX_STEPS or beta < 1e-8:
            theta, s_k = _extreme_ritz_pair(alphas, betas[:-1])
            residual, bound = beta * s_k, 1e-10 * abs(theta)
            if residual <= bound:
                return abs(theta)
            step = max(8, k // 8)
            if last is not None and bound > 0.0 and residual < last[1]:
                rate = math.log(residual / last[1]) / (k - last[0])
                step = min(max(8, k // 4),
                           math.ceil(math.log(bound / residual) / rate))
            last, next_check = (k, residual), k + step
        q_prev, q = q, z / beta
    raise DataError(
        f"lambda2: Lanczos did not converge in {_LANCZOS_MAX_STEPS} steps")


def _extreme_ritz_pair(alphas: list[float],
                       betas: list[float]) -> tuple[float, float]:
    """The eigenvalue theta of largest magnitude of the symmetric
    tridiagonal T with diagonal ``alphas`` and off-diagonal ``betas``, and
    |s_k|, the last component of its unit eigenvector, in O(k) without
    forming T.  T is first scaled by a power of 2, which rounds nothing,
    to |T| <= 1; each end of its spectrum is found by
    :func:`_top_eigenvalue` from its Gershgorin bound, the lower one as
    the top of -T.  Of equal magnitudes the negative one is taken."""
    a, b = np.array(alphas), np.array(betas)
    radius = np.abs(np.r_[b, 0.0]) + np.abs(np.r_[0.0, b])
    hi, lo = float((a + radius).max()), float((a - radius).min())
    scale = math.ldexp(1.0, math.frexp(max(hi, -lo))[1])
    a, b2 = a / scale, [0.0, *((b / scale) ** 2).tolist()]
    top = _top_eigenvalue(a, b2, hi / scale)
    bottom = _top_eigenvalue(-a, b2, -lo / scale)
    if top > bottom:
        return top * scale, _last_component(a, b2, top)
    return -bottom * scale, _last_component(-a, b2, bottom)


def _pivots(shifted: list[float], b2: list[float]) -> list[float]:
    """The pivots d_i = shifted_i - b2_i / d_{i-1} of L D L^T, for the
    diagonal ``shifted`` and squared off-diagonal ``b2`` (``b2[0]`` = 0).
    A zero pivot, at an eigenvalue of a leading block, becomes eps^2."""
    pivots, d = [], 1.0
    for ai, ci in zip(shifted, b2):
        d = ai - ci / d or _PIVOT_FLOOR
        pivots.append(d)
    return pivots


def _top_eigenvalue(a: np.ndarray, b2: list[float], x: float) -> float:
    """The largest eigenvalue of the tridiagonal T with diagonal ``a`` and
    squared off-diagonal ``b2`` (``b2[0]`` = 0), |T| <= 1, from an ``x``
    at or above it.

    det(T - x I) is the product of the pivots of :func:`_pivots`, so its
    logarithmic derivative G and H = -G' are sums over the pivots, of
    d_i'/d_i and its derivative, which follow the pivots' recurrence.
    Laguerre's iteration on them (Parlett, The Symmetric Eigenvalue
    Problem, 1980) descends monotonically from above onto the largest
    root, cubically once it is isolated, until rounding stops it.  Above
    the spectrum every pivot is negative (Sturm); a pivot >= 0 shows a
    step that rounding took onto or past the root, and ends the descent
    before a pivot near 0 can swamp G."""
    n = len(a)
    while True:
        d, g, e = 1.0, 0.0, 0.0  # pivot, d'/d and d''/d
        g_sum = h_sum = 0.0
        for ai, ci in zip((a - x).tolist(), b2):
            t = ci / d
            d = ai - t
            if d >= 0.0:
                return x
            g, e = (t * g - 1.0) / d, t * (e - 2.0 * g * g) / d
            g_sum += g
            h_sum += g * g - e
        root = math.sqrt(max((n - 1) * (n * h_sum - g_sum * g_sum), 0.0))
        new = x - n / (g_sum + root)
        if not new < x:  # no step down, or NaN: the root, to rounding
            return x
        x = new


def _last_component(a: np.ndarray, b2: list[float], theta: float) -> float:
    """|s_k| for the eigenvalue ``theta`` of the tridiagonal T (diagonal
    ``a``, squared off-diagonal ``b2``), from the twisted factorization of
    T - theta I (Parlett and Dhillon, 2000).  The top-down pivots d_i and
    the bottom-up pivots u_i meet at the row r of smallest twist
    d_r + u_r - (a_r - theta); the vector z with z_r = 1 that solves every
    other row has |z_i / z_i+1| = b_i / |d_i| above r and
    |z_i+1 / z_i| = b_i / |u_i+1| below it.  The bottom-up recurrence
    alone (r = 1) underestimates |s_k| when the vector's top rows are
    tiny."""
    shifted = a - theta
    down = np.array(_pivots(shifted.tolist(), b2))
    up = np.array(_pivots(shifted[::-1].tolist(), [0.0, *b2[:0:-1]])[::-1])
    r = int(np.argmin(np.abs(down + up - shifted)))
    b = np.sqrt(b2[1:])
    above = np.cumprod((b[:r] / down[:r])[::-1])
    below = np.cumprod(b[r:] / up[r + 1:])
    last = below[-1] if len(below) else 1.0
    return abs(float(last)) / math.sqrt(1.0 + _dot(above, above)
                                        + _dot(below, below))


def _has_twins(g: Graph) -> bool:
    """Whether two nodes have the same neighbor set.  Sums of keys below
    2**53 / max degree over each set, exact in floats, rank the nodes, and
    nodes tied on a first sum by a second; only equal neighbor sets
    certify a tie, so a hash collision cannot."""
    keys = stream(_SPECTRUM_SEED).integers(
        0, 2 ** 53 // int(g.degrees.max()), size=(2, g.node_count))
    first = g.adjacency_matvec(keys[0])
    order = np.argsort(first)
    tie = np.diff(first[order]) == 0
    if not tie.any():
        return False
    tied = order[np.r_[tie, False] | np.r_[False, tie]]
    second = g.adjacency_matvec(keys[1])
    tied = tied[np.lexsort((second[tied], first[tied]))]
    a, b = tied[:-1], tied[1:]
    same = (first[a] == first[b]) & (second[a] == second[b])
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    # each set ascending, read from the edges sorted by (lo, hi)
    return any(np.array_equal(*[np.concatenate([lo[hi == v], hi[lo == v]])
                                for v in pair])
               for pair in zip(a[same].tolist(), b[same].tolist()))


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
    (bias cov(label, degree)/E{d} = E{f(friend)} - f_bar).  A law that is
    not a :func:`node_law` or not over the graph's nodes raises ``DataError``.
    """
    estimator_code(kind)
    law = node_law(law)
    if len(law) != lg.graph.node_count:
        raise DataError("the respondent law is not over the graph's nodes")
    table = lg.labels if kind == "IP" else lg.responses
    total = float(law.sum())
    mean = _dot(law, table) / total
    second = _dot(law, table * table) / total
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

def budget_threshold(lg: LabeledGraph, lambda2: float) -> float:
    """Largest budget for which the walk poll's MSE bound stays below the
    intent-polling MSE.

    +inf when the comparison holds for every budget (zero label-degree
    covariance with a favorable spectral bound); <= 0 when the bound is
    vacuous (negative numerator, e.g. when lambda2 = 1), and -inf when
    the covariance is zero as well.
    """
    f_bar = lg.true_fraction
    var_f = f_bar - f_bar * f_bar
    numerator = (var_f - lambda2 * lambda2 * mean_label_friend(lg)) \
        * mean_degree(lg.graph) ** 2
    cov = label_degree_covariance(lg)
    return (numerator / (cov * cov) if cov != 0.0
            else math.inf if numerator >= 0.0 else -math.inf)


# ---------------------------------------------------------------------------
# friendship-paradox checks

class ParadoxCheck(NamedTuple):
    mean_degree_uniform: float
    mean_degree_friend: float
    mean_degree_neighbor: float
    holds: bool
    fosd_holds: bool


def friendship_paradox_check(g: Graph, neighbor: np.ndarray) -> ParadoxCheck:
    """Exact mean degrees of the three node laws, whether both friend
    laws dominate the uniform one (they always should), and whether the
    degree of a uniform neighbor of a uniform node dominates a uniform
    node's degree in first order: its CDF lies at or below the uniform
    one at every degree.  ``neighbor`` is that node law,
    ``respondent_law(g, "FN")``."""
    mean_x = mean_degree(g)
    mean_y = float(np.dot(g.degrees, g.degrees)) / g.edge_end_count
    mean_z = _dot(neighbor, g.degrees)
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
    g, n = lg.graph, lg.graph.node_count
    labels = [int(x) for x in lg.labels]
    adj = [[] for _ in range(n)]
    for u, v in g.edges.tolist() + g.edges[:, ::-1].tolist():
        adj[u].append(v)

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
