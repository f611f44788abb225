import dataclasses
import itertools
import math

import numpy as np
import pytest

from nepoll import netgen
from nepoll import (ConfigModelSpec, DataError, ErdosRenyiSpec, LabelTarget,
                    RewireTarget, TargetUnreachableError, assign_labels,
                    assortativity, build_graph, configuration_model,
                    degree_label_corr, erdos_renyi, friendship_paradox_check,
                    read_edge_list, respondent_law, rewire_to_assortativity,
                    stream, write_edge_list)

import _reference


# ---------------------------------------------------------------------------
# configuration model

def test_forced_unit_degrees_give_perfect_matching():
    spec = ConfigModelSpec(node_count=4, power_law_exponent=math.inf,
                           k_min=1, k_max=1, seed=3)
    g, erased = configuration_model(spec)
    assert erased == 0
    assert g.degrees.tolist() == [1, 1, 1, 1]
    assert g.edge_count == 2


def test_configuration_model_deterministic():
    spec = ConfigModelSpec(node_count=500, power_law_exponent=2.4, seed=17)
    g1, e1 = configuration_model(spec)
    g2, e2 = configuration_model(spec)
    assert e1 == e2
    assert np.array_equal(g1.edges, g2.edges)


@pytest.mark.parametrize("spec, retries", [
    (ConfigModelSpec(60, 2.4, k_min=1, k_max=20), True),
    (ConfigModelSpec(300, 2.2, k_min=2), False),
    (ConfigModelSpec(2000, 2.4, k_min=3, k_max=60), False),
    (ConfigModelSpec(12, 3.0, k_min=1, k_max=5), True),
], ids=["kmin1", "no-kmax", "n2000", "n12"])
def test_configuration_model_matches_permuting_reference(spec, retries):
    """The stubs shuffled in place and the keys built in place give the
    graphs, erased-stub counts and retries of ``gen.permutation`` with
    masked ends, seed for seed; the seeds include odd degree sums and
    retried matchings."""
    odd, retried = False, False
    for seed in range(8):
        seeded = dataclasses.replace(spec, seed=seed)
        g, erased = configuration_model(seeded)
        want, want_erased, attempt, was_odd = \
            _reference.configuration_model(seeded)
        assert np.array_equal(g.edges, want.edges), seed
        assert np.array_equal(g.original_ids, want.original_ids), seed
        assert erased == want_erased, seed
        odd |= was_odd
        retried |= attempt > 0
    assert odd and retried == retries


@pytest.mark.parametrize("spec, fields, message", [
    (ConfigModelSpec, dict(node_count=10, power_law_exponent=2.4, k_min=5,
                           k_max=3), "k_max 3 < k_min 5"),
    (ConfigModelSpec, dict(node_count=10, power_law_exponent=2.4, k_min=0),
     "k_min must be >= 1"),
    (ConfigModelSpec, dict(node_count=10, power_law_exponent=2.4, k_max=10),
     "k_max 10 > n-1 = 9"),
    (ConfigModelSpec, dict(node_count=10, power_law_exponent=1.0),
     "power-law exponent must be > 1"),
    (ConfigModelSpec, dict(node_count=3_037_000_500, power_law_exponent=2.4),
     "need 2 to 3037000499 nodes, got 3037000500"),
    (ErdosRenyiSpec, dict(node_count=10, edge_probability=0.0),
     "edge probability must be in (0, 1]"),
    (ErdosRenyiSpec, dict(node_count=1, edge_probability=0.5),
     "need 2 to 3037000499 nodes, got 1"),
    (ErdosRenyiSpec, dict(node_count=10 ** 20, edge_probability=0.5),
     f"need 2 to 3037000499 nodes, got {10 ** 20}"),
    (ConfigModelSpec, dict(node_count=100.5, power_law_exponent=2.4),
     "node_count must be a count >= 0, got 100.5"),
    (ConfigModelSpec, dict(node_count=100, power_law_exponent=2.4, seed=-1),
     "seed must be a count >= 0, got -1"),
    (ConfigModelSpec, dict(node_count=100, power_law_exponent=2.4,
                           k_max=10.5),
     "k_max must be a count >= 0, got 10.5"),
    (ConfigModelSpec, dict(node_count=100, power_law_exponent=2.4,
                           k_min=True),
     "k_min must be a count >= 0, got True"),
    (ErdosRenyiSpec, dict(node_count=100, edge_probability=0.1, seed=1.5),
     "seed must be a count >= 0, got 1.5"),
    (ErdosRenyiSpec, dict(node_count="100", edge_probability=0.1),
     "node_count must be a count >= 0, got '100'"),
    (RewireTarget, dict(target=0.3, max_iterations=2.5),
     "max_iterations must be a count >= 0, got 2.5"),
    (LabelTarget, dict(base_probability=0.3, target=0.1, max_iterations=-1),
     "max_iterations must be a count >= 0, got -1"),
    (LabelTarget, dict(base_probability=0.0),
     "base probability must lie strictly in (0, 1)"),
    (LabelTarget, dict(base_probability=1.0),
     "base probability must lie strictly in (0, 1)"),
])
def test_specs_reject_bad_fields(spec, fields, message):
    with pytest.raises(DataError) as exc:
        spec(**fields)
    assert type(exc.value) is DataError
    assert str(exc.value) == message


def test_largest_node_count_keeps_keys_in_int64():
    n = netgen._MAX_NODES
    assert n * n <= 2 ** 63 < (n + 1) ** 2
    ConfigModelSpec(n, 2.4), ErdosRenyiSpec(n, 0.5)


def test_power_law_ccdf_slope():
    # mid-range log-log slope of the complementary degree CDF should be
    # about -(alpha - 1); averaged over a few seeds to tame tail noise
    slopes = []
    for seed in (0, 1, 2):
        g, _ = configuration_model(
            ConfigModelSpec(node_count=5000, power_law_exponent=2.4,
                            k_min=1, seed=seed))
        d = g.degrees
        ks = np.arange(1, d.max() + 1)
        ccdf = np.array([(d >= k).mean() for k in ks])
        mask = (ks >= 5) & (ccdf >= 0.002)
        slopes.append(np.polyfit(np.log10(ks[mask]),
                                 np.log10(ccdf[mask]), 1)[0])
    assert abs(np.mean(slopes) - (-1.4)) <= 0.15


def test_configuration_model_no_isolates_and_simple():
    g, _ = configuration_model(ConfigModelSpec(2000, 2.4, seed=5))
    assert g.min_degree >= 1
    pairs = [tuple(e) for e in g.edges.tolist()]
    assert len(set(pairs)) == len(pairs)
    assert all(u != v for u, v in pairs)


# ---------------------------------------------------------------------------
# Erdos-Renyi

def test_er_mean_degree():
    g = erdos_renyi(ErdosRenyiSpec(node_count=5000, edge_probability=0.01,
                                   seed=1))
    mean_deg = g.edge_end_count / g.node_count
    # 3 sigma of 2*Binomial(n(n-1)/2, p)/n
    pairs = 5000 * 4999 / 2
    band = 3 * 2 * math.sqrt(pairs * 0.01 * 0.99) / 5000
    assert abs(mean_deg - 49.99) <= band


def test_er_assortativity_near_zero():
    g = erdos_renyi(ErdosRenyiSpec(node_count=5000, edge_probability=0.01,
                                   seed=2))
    assert abs(assortativity(g)) <= 0.03


def test_er_saturation_gives_complete_graph():
    g = erdos_renyi(ErdosRenyiSpec(node_count=6, edge_probability=1.0,
                                   seed=0))
    assert g.edge_count == 15
    assert g.degrees.tolist() == [5] * 6


def test_er_deterministic():
    spec = ErdosRenyiSpec(node_count=300, edge_probability=0.05, seed=9)
    assert np.array_equal(erdos_renyi(spec).edges, erdos_renyi(spec).edges)


def test_er_isolated_nodes_exhaust_retries():
    with pytest.raises(DataError, match=r"^G\(n=50, p=0\.001\) produced "
                                        "isolated nodes in 100 attempts$"):
        erdos_renyi(ErdosRenyiSpec(node_count=50, edge_probability=0.001,
                                   seed=0))


def test_er_tiny_p_exhausts_retries_without_overflow():
    # numpy draws 2**63 - 1 for every gap of p = 1e-300
    with pytest.raises(DataError) as exc:
        erdos_renyi(ErdosRenyiSpec(node_count=50, edge_probability=1e-300,
                                   seed=0))
    assert type(exc.value) is DataError
    assert str(exc.value) == \
        "G(n=50, p=1e-300) produced isolated nodes in 100 attempts"


# at the largest n, the 12 gaps of a block of p = 1e-18, about 1e18 each,
# sum past 2**63; p = 1e-19 draws gaps of 2**63 - 1 after an edge.  No
# sum past the last pair may wrap into an edge
@pytest.mark.parametrize("p", [1e-18, 1e-19])
def test_er_gap_sums_past_int64_keep_the_indices(p):
    n = netgen._MAX_NODES
    pairs = n * (n - 1) // 2
    for seed in range(20):
        assert netgen._edge_indices(stream(seed), p, pairs).tolist() \
            == _reference.edge_indices(stream(seed), p, pairs)


@pytest.mark.parametrize("n", range(2, 10))
def test_er_pair_index_is_the_combinations_position(n):
    combos = list(itertools.combinations(range(n), 2))
    keys = netgen._pair_keys(np.arange(len(combos), dtype=np.int64), n)
    assert keys.tolist() == [u * n + v for u, v in combos]


# The law of the gap draw on n = 7, over many seeds: the pairs are iid
# Bernoulli(p).  erdos_renyi's retries condition on no isolated node, so
# the draw is tested beneath them.
_LAW_N, _LAW_SEEDS = 7, 3000
_LAW_PAIRS = _LAW_N * (_LAW_N - 1) // 2


@pytest.fixture(scope="module", params=[0.01, 0.05, 0.3, 0.9])
def er_draws(request):
    """p, and the edge indices G(7, p) draws at each of many seeds."""
    p = request.param
    return p, [netgen._edge_indices(stream(seed), p, _LAW_PAIRS)
               for seed in range(_LAW_SEEDS)]


def test_er_draw_is_one_gap_at_a_time(er_draws):
    # a small p draws blocks of 2 gaps, so many draws cross a block
    p, draws = er_draws
    for seed, index in enumerate(draws):
        assert index.tolist() == _reference.edge_indices(stream(seed), p,
                                                         _LAW_PAIRS)
        keys = netgen._pair_keys(index.copy(), _LAW_N)
        assert np.all(np.diff(keys) > 0)


def test_er_pair_inclusion_is_bernoulli(er_draws):
    p, draws = er_draws
    hits = np.bincount(np.concatenate(draws), minlength=_LAW_PAIRS)
    # each pair's hits are Binomial(seeds, p): within 5 standard deviations
    band = 5 * math.sqrt(_LAW_SEEDS * p * (1 - p))
    assert np.all(np.abs(hits - _LAW_SEEDS * p) <= band)


def test_er_edge_count_is_binomial(er_draws):
    p, draws = er_draws
    counts = np.array([len(index) for index in draws])
    mean, var = _LAW_PAIRS * p, _LAW_PAIRS * p * (1 - p)
    # standard errors of the sample mean and sample variance of
    # Binomial(pairs, p), whose excess kurtosis is (1 - 6p(1 - p)) / var
    kurtosis = (1 - 6 * p * (1 - p)) / var
    assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / _LAW_SEEDS)
    assert abs(counts.var(ddof=1) - var) \
        <= 5 * var * math.sqrt((2 + kurtosis) / _LAW_SEEDS)


# ---------------------------------------------------------------------------
# rewiring

def test_rewire_noop_when_already_at_target(powerlaw_graph):
    current = assortativity(powerlaw_graph)
    out = rewire_to_assortativity(powerlaw_graph, RewireTarget(current),
                                  stream(4))
    assert out is powerlaw_graph


def test_rewire_regular_graph_undefined(k3):
    with pytest.raises(DataError, match="^regular graph: degree-degree "
                                        "correlation undefined$"):
        rewire_to_assortativity(k3, RewireTarget(0.5), stream(0))


# ---------------------------------------------------------------------------
# label assignment

def test_assign_labels_without_target_is_iid(powerlaw_graph):
    lg = assign_labels(powerlaw_graph, LabelTarget(0.3), stream(8))
    f = lg.true_fraction
    assert abs(f - 0.3) <= 4 * math.sqrt(0.21 / powerlaw_graph.node_count)


def test_assign_labels_regular_graph_undefined(k3):
    with pytest.raises(DataError, match="^regular graph: degree-label "
                                        "correlation undefined$"):
        assign_labels(k3, LabelTarget(0.5, target=0.1), stream(0))


def test_correlations_are_the_floats_the_swaps_stopped_on(powerlaw_graph,
                                                          monkeypatch):
    # reached or not, the correlation assortativity or degree_label_corr
    # reads off a swapped graph is the float its swaps steered by, bit for bit; out of reach,
    # it is also the error's ``achieved``
    stopped = []
    run = netgen._SwapProcess.run

    def recording_run(self, *args):
        try:
            return run(self, *args)
        finally:
            stopped.append(self.current)

    monkeypatch.setattr(netgen._SwapProcess, "run", recording_run)
    g = powerlaw_graph
    for seed in range(4):
        for goal, reachable in ((-0.1, True), (0.1, True), (0.99, False)):
            for swaps, target, stat in (
                    (rewire_to_assortativity,
                     RewireTarget(goal, 0.005, 40_000), assortativity),
                    (assign_labels,
                     LabelTarget(0.3, goal, 0.005, 40_000),
                     degree_label_corr)):
                stopped.clear()
                if reachable:
                    out = swaps(g, target, stream(seed))
                else:
                    with pytest.raises(TargetUnreachableError) as exc:
                        swaps(g, target, stream(seed))
                    out = exc.value.result
                    assert exc.value.achieved == stopped[0]
                assert len(stopped) == 1
                assert stat(out) == stopped[0]


def test_target_validation():
    nan = float("nan")
    for bad in (nan, 3.0, -1.5, math.inf):
        with pytest.raises(DataError, match="target must lie in"):
            RewireTarget(bad)
        with pytest.raises(DataError, match="target must lie in"):
            LabelTarget(0.5, target=bad)
    for bad in (nan, 0.0, -0.1):
        with pytest.raises(DataError, match="tolerance must be > 0"):
            RewireTarget(0.1, tolerance=bad)
        with pytest.raises(DataError, match="tolerance must be > 0"):
            LabelTarget(0.5, target=0.1, tolerance=bad)
    # the ends of the range and an untargeted label draw stay valid
    RewireTarget(-1.0), RewireTarget(1.0), LabelTarget(0.5, target=None)


# ---------------------------------------------------------------------------
# generated graphs satisfy the structural guarantees and round-trip

def test_generated_graphs_pass_paradox_checks():
    graphs = [
        configuration_model(ConfigModelSpec(800, 2.4, seed=21))[0],
        configuration_model(ConfigModelSpec(800, 3.1, k_min=2, seed=22))[0],
        erdos_renyi(ErdosRenyiSpec(400, 0.02, seed=23)),
    ]
    for g in graphs:
        check = friendship_paradox_check(g, respondent_law(g, "FN"))
        assert check.holds
        assert check.fosd_holds
        assert int(g.degrees.sum()) == 2 * g.edge_count


def test_every_producer_output_is_canonical(powerlaw_graph, tmp_path):
    """Each producer hands ``Graph`` its keys unchecked, so its graph must
    equal the one ``build_graph`` makes of the same edge file rows."""
    path = tmp_path / "sparse.edges"
    path.write_text("".join(f"{7 * u + 3} {7 * v + 3}\n"
                            for u, v in powerlaw_graph.edges.tolist()))
    sparse = read_edge_list(path)
    with pytest.raises(TargetUnreachableError) as exc:
        rewire_to_assortativity(powerlaw_graph,
                                RewireTarget(0.99, max_iterations=40_000),
                                stream(5))
    rewired_sparse = rewire_to_assortativity(sparse, RewireTarget(-0.15),
                                             stream(3))
    assert rewired_sparse.original_ids.tolist() == \
        (7 * np.arange(powerlaw_graph.node_count) + 3).tolist()
    produced = [
        configuration_model(ConfigModelSpec(800, 2.4, seed=21))[0],
        erdos_renyi(ErdosRenyiSpec(400, 0.02, seed=23)),
        rewire_to_assortativity(powerlaw_graph, RewireTarget(0.15),
                                stream(3)),
        exc.value.result,
        rewired_sparse,
    ]
    for g in produced:
        rebuilt = build_graph(g.original_ids[g.edges])
        assert rebuilt.node_count == g.node_count
        for name in ("edges", "degrees", "original_ids"):
            assert np.array_equal(getattr(g, name), getattr(rebuilt, name))
            assert getattr(g, name).dtype == getattr(rebuilt, name).dtype


def test_generated_graph_round_trips_through_files(tmp_path):
    g = erdos_renyi(ErdosRenyiSpec(120, 0.05, seed=31))
    path = tmp_path / "gen.edges"
    write_edge_list(g, path)
    loaded = read_edge_list(path)
    assert np.array_equal(loaded.edges, g.edges)
