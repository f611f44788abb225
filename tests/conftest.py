import pytest

from nepoll import (ConfigModelSpec, LabeledGraph, build_graph,
                    configuration_model)


@pytest.fixture
def star():
    """K_{1,3}: center 0, leaves 1..3."""
    return build_graph([(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def star_lg(star):
    return LabeledGraph(star, [1, 0, 0, 0])


@pytest.fixture
def k3():
    return build_graph([(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def k3_lg(k3):
    return LabeledGraph(k3, [1, 0, 0])


@pytest.fixture
def c4():
    return build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def path3():
    return build_graph([(0, 1), (1, 2)])


@pytest.fixture
def star_chord():
    """K_{1,3} plus an edge between two leaves: connected, non-bipartite."""
    return build_graph([(0, 1), (0, 2), (0, 3), (1, 2)])


@pytest.fixture
def star_chord_lg(star_chord):
    return LabeledGraph(star_chord, [1, 0, 0, 1])


@pytest.fixture
def two_edges():
    return build_graph([(0, 1), (2, 3)])


@pytest.fixture(scope="module")
def powerlaw_graph():
    """The swap tests' graph.  k_max is capped: an unlucky dominant hub caps
    the attainable assortativity well below the targets they use."""
    g, _ = configuration_model(
        ConfigModelSpec(node_count=1000, power_law_exponent=2.4,
                        k_min=1, k_max=60, seed=11))
    return g
