import math

import numpy as np
import pytest

from nepoll import (ConfigModelSpec, DataError, ErdosRenyiSpec, LabelTarget,
                    LabeledGraph, RewireTarget, TargetUnreachableError,
                    assign_labels, build_graph, configuration_model,
                    erdos_renyi, friendship_paradox_check, network_stats,
                    read_edge_list, rewire_to_assortativity, stream,
                    write_edge_list)


def _assortativity(g):
    zeros = np.zeros(g.node_count, dtype=np.int64)
    return network_stats(LabeledGraph(g, zeros)).assortativity


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


def test_configuration_model_degenerate_specs():
    with pytest.raises(DataError, match="^k_max 3 < k_min 5$"):
        configuration_model(ConfigModelSpec(10, 2.4, k_min=5, k_max=3))
    with pytest.raises(DataError, match="^k_min must be >= 1$"):
        configuration_model(ConfigModelSpec(10, 2.4, k_min=0))
    with pytest.raises(DataError, match="^k_max 10 > n-1 = 9$"):
        configuration_model(ConfigModelSpec(10, 2.4, k_max=10))
    with pytest.raises(DataError, match="^power-law exponent must be > 1$"):
        configuration_model(ConfigModelSpec(10, 1.0))


@pytest.mark.parametrize("spec, fields, message", [
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
])
def test_specs_reject_non_count_fields(spec, fields, message):
    with pytest.raises(DataError) as exc:
        spec(**fields)
    assert type(exc.value) is DataError
    assert str(exc.value) == message


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
    assert abs(_assortativity(g)) <= 0.03


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


def test_er_validation():
    with pytest.raises(DataError,
                       match=r"^edge probability must be in \(0, 1\]$"):
        erdos_renyi(ErdosRenyiSpec(node_count=10, edge_probability=0.0))
    with pytest.raises(DataError, match="^need at least two nodes$"):
        erdos_renyi(ErdosRenyiSpec(node_count=1, edge_probability=0.5))


# ---------------------------------------------------------------------------
# rewiring

@pytest.fixture(scope="module")
def powerlaw_graph():
    # k_max capped: an unlucky dominant hub caps the attainable
    # assortativity well below the targets used here
    g, _ = configuration_model(
        ConfigModelSpec(node_count=1000, power_law_exponent=2.4,
                        k_min=1, k_max=60, seed=11))
    return g


def test_rewire_hits_target_and_preserves_degrees(powerlaw_graph):
    g = powerlaw_graph
    for target in (0.15, -0.15):
        out = rewire_to_assortativity(g, RewireTarget(target),
                                      stream(3))
        assert abs(_assortativity(out) - target) <= 0.02
        assert sorted(out.degrees.tolist()) == sorted(g.degrees.tolist())
        assert np.array_equal(np.sort(out.degrees), np.sort(g.degrees))


def test_rewire_noop_when_already_at_target(powerlaw_graph):
    current = _assortativity(powerlaw_graph)
    out = rewire_to_assortativity(powerlaw_graph, RewireTarget(current),
                                  stream(4))
    assert out is powerlaw_graph


def test_rewire_unreachable_target_returns_best_effort(powerlaw_graph):
    with pytest.raises(TargetUnreachableError) as exc:
        rewire_to_assortativity(powerlaw_graph,
                                RewireTarget(0.99, max_iterations=40_000),
                                stream(5))
    best = exc.value.result
    assert sorted(best.degrees.tolist()) == \
        sorted(powerlaw_graph.degrees.tolist())
    assert exc.value.achieved == pytest.approx(_assortativity(best),
                                               abs=1e-9)


def test_rewire_regular_graph_undefined(k3):
    with pytest.raises(DataError, match="^regular graph: degree-degree "
                                        "correlation undefined$"):
        rewire_to_assortativity(k3, RewireTarget(0.5), stream(0))


def test_rewire_deterministic(powerlaw_graph):
    a = rewire_to_assortativity(powerlaw_graph, RewireTarget(0.1),
                                stream(6))
    b = rewire_to_assortativity(powerlaw_graph, RewireTarget(0.1),
                                stream(6))
    assert np.array_equal(a.edges, b.edges)


# ---------------------------------------------------------------------------
# label assignment

def test_assign_labels_without_target_is_iid(powerlaw_graph):
    lg = assign_labels(powerlaw_graph, LabelTarget(0.3), stream(8))
    f = lg.true_fraction
    assert abs(f - 0.3) <= 4 * math.sqrt(0.21 / powerlaw_graph.node_count)


def test_assign_labels_hits_target_and_preserves_fraction(powerlaw_graph):
    for target in (0.1, -0.1, 0.0):
        rs = stream(9)
        lg = assign_labels(powerlaw_graph,
                           LabelTarget(0.3, target=target), rs)
        assert abs(network_stats(lg).degree_label_corr - target) <= 0.02
        # the swap phase must not change the label counts: compare to the
        # iid draw from the same stream
        iid = assign_labels(powerlaw_graph, LabelTarget(0.3),
                            stream(9))
        assert lg.labels.sum() == iid.labels.sum()
        assert lg.true_fraction == iid.true_fraction


def test_assign_labels_regular_graph_undefined(k3):
    with pytest.raises(DataError, match="^regular graph: degree-label "
                                        "correlation undefined$"):
        assign_labels(k3, LabelTarget(0.5, target=0.1), stream(0))


def test_assign_labels_unreachable_target(powerlaw_graph):
    with pytest.raises(TargetUnreachableError) as exc:
        assign_labels(powerlaw_graph,
                      LabelTarget(0.3, target=0.99, max_iterations=50_000),
                      stream(10))
    assert isinstance(exc.value.result, LabeledGraph)
    assert abs(exc.value.achieved) < 0.99


def test_assign_labels_validates_probability(powerlaw_graph):
    with pytest.raises(ValueError):
        assign_labels(powerlaw_graph, LabelTarget(0.0), stream(0))
    with pytest.raises(ValueError):
        assign_labels(powerlaw_graph, LabelTarget(1.0), stream(0))


def test_target_validation():
    with pytest.raises(ValueError):
        RewireTarget(0.1, tolerance=0.0)
    with pytest.raises(ValueError):
        LabelTarget(0.5, tolerance=-1.0)
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
        check = friendship_paradox_check(g)
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
        for name in ("edges", "neighbors", "indptr", "degrees",
                     "original_ids"):
            assert np.array_equal(getattr(g, name), getattr(rebuilt, name))
            assert getattr(g, name).dtype == getattr(rebuilt, name).dtype


def test_generated_graph_round_trips_through_files(tmp_path):
    g = erdos_renyi(ErdosRenyiSpec(120, 0.05, seed=31))
    path = tmp_path / "gen.edges"
    write_edge_list(g, path)
    loaded = read_edge_list(path)
    assert np.array_equal(loaded.edges, g.edges)
