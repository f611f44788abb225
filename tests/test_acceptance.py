"""Acceptance suite.

Each criterion test prints one ``[criterion NN] PASS/FAIL`` line (visible
with ``pytest -s`` or on failure) and enforces its stated tolerance and
runtime budget.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from nepoll import (ConfigModelSpec, ErdosRenyiSpec, LabelTarget, LabeledGraph,
                    LawSampler, RewireTarget, assign_labels, budget_threshold,
                    build_graph, configuration_model, erdos_renyi,
                    friendship_paradox_check, graph_flags,
                    label_degree_covariance, load_experiment_config,
                    materialize, mean_degree, mean_label_friend,
                    network_stats, poll_values, replicate, respondent_law,
                    rewire_to_assortativity, run_report, spectral_summary,
                    stream, walk_law, write_edge_list, write_labels)
from nepoll.cli import main as cli_main
from nepoll.harness import _empirical_moments
from nepoll.sampling import WALK_TV_TOLERANCE

from _reference import (polled_in_ranges, random_nodes,
                        random_walk_endpoints, sample_random_friends)

SLACK = 1e-12  # guards exact real-arithmetic inequalities against rounding


def _verdict(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# the small-graph suite: ER(0.2), ER(0.5), configuration model, stars,
# cycles, paths, all with random labels

def _build_suite(count=200, master_seed=20250801):
    rng = stream(master_seed)
    suite = []
    while len(suite) < count:
        kind = len(suite) % 6
        seed_i = int(rng.integers(0, 2**31))
        if kind == 0:
            n = int(rng.integers(8, 51))
            g = erdos_renyi(ErdosRenyiSpec(n, 0.2, seed=seed_i))
        elif kind == 1:
            n = int(rng.integers(8, 51))
            g = erdos_renyi(ErdosRenyiSpec(n, 0.5, seed=seed_i))
        elif kind == 2:
            n = int(rng.integers(8, 51))
            alpha = float(rng.uniform(2.1, 3.0))
            g, _ = configuration_model(
                ConfigModelSpec(n, alpha, k_min=1,
                                k_max=min(n - 1, 12), seed=seed_i))
        elif kind == 3:
            n = int(rng.integers(4, 51))
            g = build_graph([(0, j) for j in range(1, n)])
        elif kind == 4:
            n = int(rng.integers(4, 51))
            g = build_graph([(j, (j + 1) % n) for j in range(n)])
        else:
            n = int(rng.integers(4, 51))
            g = build_graph([(j, j + 1) for j in range(n - 1)])
        p = float(rng.uniform(0.15, 0.85))
        labels = (rng.random(g.node_count) < p).astype(np.int64)
        suite.append(LabeledGraph(g, labels))
    return suite


@pytest.fixture(scope="session")
def suite():
    return _build_suite()


@pytest.fixture(scope="session")
def generated_graphs():
    """Synthetic-generator outputs used across criteria (n <= 5000)."""
    out = {}
    g5000, _ = configuration_model(
        ConfigModelSpec(5000, 2.4, k_min=1, k_max=150, seed=1))
    out["pl5000"] = g5000
    g2000, _ = configuration_model(
        ConfigModelSpec(2000, 2.4, k_min=2, k_max=80, seed=3))
    out["pl2000"] = g2000
    g1000, _ = configuration_model(ConfigModelSpec(1000, 2.4, k_min=1,
                                                   seed=50))
    out["pl1000"] = g1000
    g500, _ = configuration_model(ConfigModelSpec(500, 2.4, k_min=2, seed=0))
    out["pl500"] = g500
    out["er5000"] = erdos_renyi(ErdosRenyiSpec(5000, 0.01, seed=1))
    return out


@pytest.fixture(scope="session")
def suite_checks(suite):
    """``{name: (ok, detail)}`` of the lines ``nepoll check`` prints on each
    suite graph, and the seconds they took."""
    start = time.time()
    checks = [{name: (ok, detail) for name, ok, detail
               in run_report(lg.graph, lg.labels).invariants()}
              for lg in suite]
    return checks, time.time() - start


def _deviations(checks, prefix):
    """The deviations that the ``prefix`` lines of ``checks`` print."""
    return [float(detail.split()[-1]) for lines in checks
            for name, (_, detail) in lines.items() if name.startswith(prefix)]


# ---------------------------------------------------------------------------

def test_report_invariants_hold_on_suite(suite, suite_checks):
    """The checks ``nepoll check`` prints, on every suite graph; among them
    criterion 1, the closed forms against enumeration, the certified walk's
    law on each connected graph included."""
    checks, elapsed = suite_checks
    for i, lines in enumerate(checks):
        for name, (ok, detail) in lines.items():
            assert ok, f"suite graph {i}: {name} {detail}"
    enumerated = all(
        f"closed_form_matches_enumeration_{law}" in lines
        for lg, lines in zip(suite, checks)
        for law in ("UN", "FN", "RW-stationary")
        + (("RW-walk",) if graph_flags(lg.graph).connected else ()))
    worst = max(_deviations(checks, "closed_form_matches_enumeration_"))
    _verdict(1, enumerated and worst <= 1e-10 and elapsed < 60,
             f"closed forms vs enumeration on {len(checks)} graphs: "
             f"max deviation {worst:.1e} (tol 1e-10), {elapsed:.1f}s (< 60s)")


def test_criterion_2_paradox_universality(suite, generated_graphs):
    start = time.time()
    graphs = [lg.graph for lg in suite] + list(generated_graphs.values())
    graphs.append(rewire_to_assortativity(generated_graphs["pl2000"],
                                          RewireTarget(-0.1), stream(8080)))
    failures = sum(1 for check in map(friendship_paradox_check, graphs)
                   if not (check.holds and check.fosd_holds))
    elapsed = time.time() - start
    _verdict(2, failures == 0 and elapsed < 120,
             f"friendship-paradox and dominance checks on {len(graphs)} "
             f"graphs (incl. generator outputs to n=5000): {failures} "
             f"failures, {elapsed:.1f}s (< 120s)")


def test_criterion_3_walk_bias_identity(suite_checks):
    checks, _ = suite_checks
    ok = all(lines["walk_bias_identity"][0] for lines in checks)
    worst = max(_deviations(checks, "walk_bias_identity"))
    _verdict(3, ok,
             f"covariance route equals friend-label route on {len(checks)} "
             f"graphs: max deviation {worst:.1e} (tol 1e-12)")


def test_criterion_4_bound_soundness(suite_checks):
    # each within its bound, and the spectral bound within the min-degree one
    checks, _ = suite_checks
    violated = [i for i, lines in enumerate(checks)
                if not (lines["un_variance_within_bound"][0]
                        and lines["rw_variance_within_bound"][0])]
    _verdict(4, not violated,
             f"violated on suite graph {violated[0]}" if violated else
             f"spectral and min-degree variance bounds hold and are ordered "
             f"on {len(checks)} graphs")


def test_criterion_5_iid_label_mse_ordering(generated_graphs):
    start = time.time()
    g = generated_graphs["pl1000"]
    reps, budget = 10_000, 10
    gen = stream(51)
    # the laws do not depend on the labels: one sampler per kind
    samplers = {kind: LawSampler(respondent_law(g, kind))
                for kind in ("UN", "FN")}
    sq = {k: np.empty(reps) for k in ("UN", "FN", "RW")}
    for r in range(reps):
        labels = (gen.random(g.node_count) < 0.3).astype(np.int64)
        lg = LabeledGraph(g, labels)
        truth = lg.true_fraction
        for kind in ("UN", "FN", "RW"):
            gen_r = stream(51, ord(kind[0]), r)
            if kind == "RW":  # respondents from the stationary law
                est = lg.responses[
                    sample_random_friends(g, gen_r, budget)].mean()
            else:
                est = poll_values(kind, lg, budget, gen_r, 1,
                                  respondents=samplers[kind])[0]
            sq[kind][r] = (est - truth) ** 2
    t_stats = {}
    for kind in ("FN", "RW"):
        diff = sq[kind] - sq["UN"]
        t_stats[kind] = diff.mean() / (diff.std(ddof=1) / math.sqrt(reps))
    elapsed = time.time() - start
    ok = all(t <= -3.0 for t in t_stats.values()) and elapsed < 300
    _verdict(5, ok,
             f"paired MSE differences vs uniform polling over {reps} "
             f"label redraws: t(FN)={t_stats['FN']:.1f}, "
             f"t(RW)={t_stats['RW']:.1f} (need <= -3), "
             f"{elapsed:.1f}s (< 300s)")


def test_criterion_6_sweep_ordering(generated_graphs):
    start = time.time()
    g = generated_graphs["pl2000"]
    flags = graph_flags(g)
    assert flags.connected and not flags.bipartite
    lg = assign_labels(g, LabelTarget(0.3, target=0.0), stream(2003))
    stats = network_stats(lg)
    assert abs(stats.assortativity) <= 0.02
    assert abs(stats.degree_label_corr) <= 0.02
    truth = lg.true_fraction
    budgets = (1, 2, 5, 10, 20)
    reps = 600
    separated = True
    detail = []
    for b in budgets:
        bands = {}
        for kind in ("IP", "RW", "FN"):
            vals = replicate(lg, kind, b, reps, master_seed=60)
            sq = (vals - truth) ** 2
            bands[kind] = (sq.mean(), 2 * sq.std(ddof=1) / math.sqrt(reps))
        ip_lo = bands["IP"][0] - bands["IP"][1]
        for kind in ("RW", "FN"):
            hi = bands[kind][0] + bands[kind][1]
            if hi >= ip_lo:
                separated = False
                detail.append(f"{kind}@b={b} overlaps")
    elapsed = time.time() - start
    _verdict(6, separated and elapsed < 600,
             f"walk and friend polls beat intent polling at budgets "
             f"{budgets} with non-overlapping 2-SE bands "
             f"({reps} reps, n=2000): "
             f"{'; '.join(detail) or 'all separated'}, "
             f"{elapsed:.1f}s (< 600s)")


def test_criterion_7_budget_threshold_consistency(suite):
    checked = 0
    ok = True
    detail = ""
    for lg in suite:
        if checked >= 50:
            break
        cov = label_degree_covariance(lg)
        if cov == 0.0:
            continue
        lam2 = spectral_summary(lg.graph).lambda2
        if lam2 >= 1.0 - 1e-9:
            continue
        checked += 1
        thr = budget_threshold(lg, lam2)
        if thr.non_positive:
            continue  # no budget below a non-positive threshold
        f_bar = lg.true_fraction
        var_f = f_bar - f_bar * f_bar
        bias = cov / mean_degree(lg.graph)
        spectral_term = lam2 ** 2 * mean_label_friend(lg)
        b_max = int(min(math.floor(thr.value), 200_000))
        if b_max >= 1:
            bs = np.arange(1, b_max + 1, dtype=float)
            lhs = bias ** 2 + spectral_term / bs
            rhs = var_f / bs
            if not np.all(lhs <= rhs + SLACK):
                ok = False
                detail = f"violated below threshold {thr.value:.3f}"
                break
        if thr.value > 200_000 and math.isfinite(thr.value):
            b_end = math.floor(thr.value)
            if bias ** 2 + spectral_term / b_end > var_f / b_end + SLACK:
                ok = False
                detail = "violated at the threshold endpoint"
                break
    ok = ok and checked == 50
    _verdict(7, ok,
             detail or f"walk-poll MSE bound stays below intent-polling MSE "
                       f"for every budget under the threshold on {checked} "
                       f"qualifying graphs")


def test_criterion_8_generator_targets(generated_graphs):
    g = generated_graphs["pl5000"]
    zeros = np.zeros(g.node_count, dtype=np.int64)
    base_degrees = sorted(g.degrees.tolist())
    ok = True
    details = []
    for tgt in (-0.2, 0.0, 0.2):
        start = time.time()
        out = rewire_to_assortativity(g, RewireTarget(tgt),
                                      stream(300 + int(tgt * 10)))
        r = network_stats(LabeledGraph(out, zeros)).assortativity
        elapsed = time.time() - start
        hit = (abs(r - tgt) <= 0.02
               and sorted(out.degrees.tolist()) == base_degrees
               and elapsed < 300)
        ok = ok and hit
        details.append(f"r_kk {tgt:+.1f}->{r:+.4f} ({elapsed:.1f}s)")
    for tgt in (-0.1, 0.0, 0.1):
        start = time.time()
        seed = 400 + int(tgt * 10)
        lg = assign_labels(g, LabelTarget(0.3, target=tgt),
                           stream(seed))
        rho = network_stats(lg).degree_label_corr
        iid = assign_labels(g, LabelTarget(0.3), stream(seed))
        elapsed = time.time() - start
        hit = (abs(rho - tgt) <= 0.02
               and lg.true_fraction == iid.true_fraction
               and int(lg.labels.sum()) == int(iid.labels.sum())
               and elapsed < 300)
        ok = ok and hit
        details.append(f"rho {tgt:+.1f}->{rho:+.4f} ({elapsed:.1f}s)")
    _verdict(8, ok,
             "targets within 0.02, degree multiset and labeled fraction "
             "preserved: " + ", ".join(details))


def test_criterion_9_walk_convergence(generated_graphs):
    g = generated_graphs["pl500"]
    flags = graph_flags(g)
    assert flags.connected and not flags.bipartite
    walks = 1_000_000
    length, _, exact_tv = walk_law(g)
    gen = stream(90)
    starts = random_nodes(g, gen.random(walks))
    ends = random_walk_endpoints(g, starts, length, gen)
    freq = np.bincount(ends, minlength=g.node_count) / walks
    stationary = g.degrees / g.edge_end_count
    tv = 0.5 * float(np.abs(freq - stationary).sum())
    _verdict(9, tv < 0.02 and exact_tv <= WALK_TV_TOLERANCE,
             f"endpoint law vs degree-proportional law after the certified "
             f"{length} steps, {walks} walks: total variation {tv:.4f} "
             f"(< 0.02), exactly {exact_tv:.1e} (<= {WALK_TV_TOLERANCE})")


def test_criterion_10_sweep_determinism(tmp_path):
    g = erdos_renyi(ErdosRenyiSpec(100, 0.08, seed=4))
    assert graph_flags(g).connected
    lg = assign_labels(g, LabelTarget(0.4), stream(44))
    write_edge_list(g, tmp_path / "g.edges")
    write_labels(lg, tmp_path / "g.labels")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f'graph.path = "{tmp_path / "g.edges"}"\n'
        f'labels.path = "{tmp_path / "g.labels"}"\n'
        "budgets = [1, 4]\n"
        "replications = 120\n"
        "estimators = [IP, UN, RW, FN]\n"
        "walk_length = 40\n"
        "seed = 2024\n")
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    for out in (one, two):
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) \
            == 0
    identical = one.read_bytes() == two.read_bytes()
    # each row's empirical columns are the moments of its cell's
    # replications joined from polls of sub-ranges
    lg, _ = materialize(load_experiment_config(cfg))
    walk = walk_law(lg.graph, 40)
    joined = []
    for line in one.read_text().splitlines()[1:]:
        kind, budget, *emp = line.split(",")[:5]
        respondents = LawSampler(respondent_law(lg.graph, kind, walk))
        values = polled_in_ranges(lg, kind, int(budget), [0, 7, 64, 120],
                                  2024, respondents)
        joined.append(
            np.array_equal(values, replicate(lg, kind, int(budget), 120,
                                             2024, respondents))
            and emp == [repr(float(x)) for x in
                        _empirical_moments(values, lg.true_fraction)])
    _verdict(10, identical and len(joined) == 8 and all(joined),
             "sweep CSV byte-identical across runs, each row the moments "
             "of its cell's replications joined from 3 sub-ranges")
