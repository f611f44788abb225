import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from nepoll import (DataError, DuplicateEdgeError, GraphFlags,
                    IsolatedNodeError, LabeledGraph, SelfLoopError,
                    build_graph, graph_flags)

from _strategies import edge_lists, labeled_graphs


def test_star_construction(star):
    assert star.node_count == 4
    assert star.edge_end_count == 6
    assert star.min_degree == 1
    assert star.degrees.tolist() == [3, 1, 1, 1]
    assert star.edges.tolist() == [[0, 1], [0, 2], [0, 3]]


def test_triangle_degrees(k3):
    assert k3.degrees.tolist() == [2, 2, 2]
    assert k3.edge_end_count == 6


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph([(0, 1), (2, 2)])


def test_negative_id_rejected():
    with pytest.raises(ValueError):
        build_graph([(-1, 0)])


@pytest.mark.parametrize("pairs, error, message", [
    ([(0, 1), (2, 2), (-1, 3), (1, 0)], SelfLoopError, "self-loop at node 2"),
    ([(0, 1), (3, -1), (2, 2), (1, 0)], DataError,
     "negative node id in edge (3, -1)"),
    ([(0, 1), (1, 2), (1, 0), (3, 3), (-1, 4)], DuplicateEdgeError,
     "duplicate edge (0, 1)"),
    ([(5, 5), (-1, -1)], SelfLoopError, "self-loop at node 5"),
    ([(-2, -2), (5, 5)], DataError, "negative node id in edge (-2, -2)"),
    ([(0, 1), (1, 0)], DuplicateEdgeError, "duplicate edge (0, 1)"),
    ([(2, 1), (0, 3), (1, 2)], DuplicateEdgeError, "duplicate edge (1, 2)"),
])
@pytest.mark.parametrize("node_count", [None, 6])
def test_build_graph_reports_earliest_bad_row(pairs, error, message,
                                              node_count):
    with pytest.raises(error) as exc:
        build_graph(pairs, node_count=node_count)
    assert type(exc.value) is error
    assert str(exc.value) == message


def _reference_build(pairs, node_count=None):
    """The per-edge loop build_graph replaced: validation in input order,
    then canonical CSR arrays from sorted (u, v) tuples."""
    seen = set()
    for u, v in pairs:
        if u < 0 or v < 0:
            raise DataError(f"negative node id in edge ({u}, {v})")
        if u == v:
            raise SelfLoopError(u)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(*key)
        seen.add(key)
    if not seen:
        raise DataError("a graph needs at least one edge")
    ids = sorted({x for e in seen for x in e})
    if node_count is not None:
        if ids[-1] >= node_count:
            raise DataError(f"edge references node {ids[-1]} outside "
                             f"0..{node_count - 1}")
        missing = sorted(set(range(node_count)) - set(ids))
        if missing:
            raise IsolatedNodeError(missing[0])
        ids = list(range(node_count))
    index = {x: i for i, x in enumerate(ids)}
    edges = sorted((index[u], index[v]) for u, v in seen)
    adjacency = [[] for _ in ids]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return {"edges": edges, "neighbors": sum(map(sorted, adjacency), []),
            "degrees": [len(a) for a in adjacency], "original_ids": ids}


@given(pairs=st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
                      max_size=12),
       node_count=st.sampled_from([None, 5, 7]))
def test_build_graph_matches_reference_loop(pairs, node_count):
    try:
        expected = _reference_build(pairs, node_count)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            build_graph(pairs, node_count=node_count)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    g = build_graph(np.array(pairs), node_count=node_count)
    assert g.edges.tolist() == [list(e) for e in expected["edges"]]
    assert g.neighbors.tolist() == expected["neighbors"]
    assert g.degrees.tolist() == expected["degrees"]
    assert g.indptr.tolist() == np.cumsum([0] + expected["degrees"]).tolist()
    assert g.original_ids.tolist() == expected["original_ids"]


def test_duplicate_error_carries_canonical_edge():
    with pytest.raises(DuplicateEdgeError) as exc:
        build_graph([(0, 1), (1, 0)])
    assert exc.value.edge == (0, 1)


def test_array_and_iterable_inputs_agree():
    pairs = [(40, 10), (10, 20), (20, 30), (30, 40), (20, 40)]
    from_list = build_graph(pairs)
    from_array = build_graph(np.array(pairs, dtype=np.int64))
    from_iter = build_graph(iter(pairs))
    for g in (from_array, from_iter):
        for name in ("edges", "indptr", "neighbors", "degrees",
                     "original_ids"):
            assert np.array_equal(getattr(g, name), getattr(from_list, name))


def test_empty_edge_list_rejected():
    with pytest.raises(ValueError):
        build_graph([])


def test_sparse_ids_compacted():
    g = build_graph([(10, 30), (30, 20)])
    assert g.node_count == 3
    assert g.original_ids.tolist() == [10, 20, 30]
    # node 30 -> compact 2, connected to 10 (0) and 20 (1)
    assert g.neighbors_of(2).tolist() == [0, 1]


def test_node_count_gap_is_isolated():
    with pytest.raises(IsolatedNodeError) as exc:
        build_graph([(0, 1), (0, 3)], node_count=4)
    assert exc.value.node == 2


def test_node_count_out_of_range():
    with pytest.raises(ValueError):
        build_graph([(0, 5)], node_count=3)


def test_neighbor_lists_sorted_and_symmetric(star_chord):
    g = star_chord
    for v in range(g.node_count):
        nbrs = g.neighbors_of(v).tolist()
        assert nbrs == sorted(nbrs)
        for u in nbrs:
            assert v in g.neighbors_of(u)


@given(edges=edge_lists(max_nodes=8), data=st.data())
def test_build_graph_order_invariant(edges, data):
    g1 = build_graph(edges)
    perm = data.draw(st.permutations(edges))
    flipped = [(v, u) if data.draw(st.booleans()) else (u, v)
               for u, v in perm]
    g2 = build_graph(flipped)
    assert g1.node_count == g2.node_count
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.neighbors, g2.neighbors)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.original_ids, g2.original_ids)


def test_true_fraction_examples(star, c4):
    assert LabeledGraph(star, [1, 0, 0, 0]).true_fraction == 0.25
    assert LabeledGraph(star, [0, 0, 0, 0]).true_fraction == 0.0
    assert LabeledGraph(c4, [1, 0, 1, 0]).true_fraction == 0.5


def test_poll_response_examples(star_lg, k3_lg):
    assert star_lg.responses[0] == 0.0   # center sees three 0-labels
    assert star_lg.responses[1] == 1.0   # leaf's only neighbor is center
    assert k3_lg.responses[1] == 0.5


def test_label_validation(star):
    with pytest.raises(ValueError):
        LabeledGraph(star, [1, 0, 0])        # wrong length
    with pytest.raises(ValueError):
        LabeledGraph(star, [1, 0, 0, 2])     # non-binary


def test_fractional_labels_rejected(k3):
    with pytest.raises(DataError, match="^labels must be 0 or 1$"):
        LabeledGraph(k3, [0.5, 1.7, 0])
    lg = LabeledGraph(k3, [1.0, 0.0, 1.0])
    assert lg.labels.dtype == np.int64 and lg.labels.tolist() == [1, 0, 1]


def test_graph_flags_examples(k3, star, two_edges):
    assert graph_flags(k3) == GraphFlags(connected=True, bipartite=False)
    assert graph_flags(star) == GraphFlags(connected=True, bipartite=True)
    assert graph_flags(two_edges) == GraphFlags(connected=False,
                                                bipartite=True)


def test_graph_flags_odd_cycle_component():
    g = build_graph([(0, 1), (1, 2), (2, 0), (3, 4)])
    flags = graph_flags(g)
    assert not flags.connected
    assert not flags.bipartite


@st.composite
def multi_component_edge_lists(draw):
    """One to three edge lists on disjoint id ranges."""
    pairs, offset = [], 0
    for _ in range(draw(st.integers(1, 3))):
        part = draw(edge_lists(max_nodes=7))
        pairs += [(u + offset, v + offset) for u, v in part]
        offset += 1 + max(max(e) for e in part)
    return pairs


@given(pairs=multi_component_edge_lists())
def test_graph_flags_match_networkx(pairs):
    g = build_graph(pairs)
    reference = nx.Graph(g.edges.tolist())
    assert graph_flags(g) == GraphFlags(
        connected=nx.is_connected(reference),
        bipartite=nx.is_bipartite(reference))


@pytest.mark.parametrize("pairs", [
    # two bipartite components
    [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)],
    # an odd cycle in the second and in the third component
    [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)],
    [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (7, 8), (8, 9),
     (9, 7)],
    # an odd cycle only reached deep in the search from node 0
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)],
])
def test_graph_flags_match_networkx_examples(pairs):
    g = build_graph(pairs)
    reference = nx.Graph(pairs)
    assert graph_flags(g) == GraphFlags(
        connected=nx.is_connected(reference),
        bipartite=nx.is_bipartite(reference))


@given(lg=labeled_graphs())
def test_mean_label_is_true_fraction(lg):
    total = int(sum(int(x) for x in lg.labels))
    assert lg.true_fraction == total / lg.graph.node_count


@given(lg=labeled_graphs())
def test_response_times_degree_is_integer_count(lg):
    for v in range(lg.graph.node_count):
        d = int(lg.graph.degrees[v])
        count = lg.responses[v] * d
        assert math.isclose(count, round(count), abs_tol=1e-9)
        assert 0 <= count <= d
