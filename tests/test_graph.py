from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given
import hypothesis.strategies as st

from nepoll import (ConfigModelSpec, DataError, ExperimentConfig, Graph,
                    GraphFlags, LabeledGraph, LabelTarget, RewireTarget,
                    assortativity, build_graph, degree_label_corr,
                    graph_flags, materialize, stream, write_edge_list,
                    write_labels)
from nepoll import graph as graph_module

from _reference import sorting_build_graph
from _strategies import edge_lists, graphs, labeled_graphs


def test_star_construction(star):
    assert star.node_count == 4
    assert star.edge_end_count == 6
    assert star.min_degree == 1
    assert star.degrees.tolist() == [3, 1, 1, 1]
    assert star.edges.tolist() == [[0, 1], [0, 2], [0, 3]]


def test_triangle_degrees(k3):
    assert k3.degrees.tolist() == [2, 2, 2]
    assert k3.edge_end_count == 6


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (2, 2), (-1, 3), (1, 0)], "self-loop at node 2"),
    ([(0, 1), (3, -1), (2, 2), (1, 0)], "negative node id in edge (3, -1)"),
    ([(0, 1), (1, 2), (1, 0), (3, 3), (-1, 4)], "duplicate edge (0, 1)"),
    ([(5, 5), (-1, -1)], "self-loop at node 5"),
    ([(-2, -2), (5, 5)], "negative node id in edge (-2, -2)"),
    ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    ([(2, 1), (0, 3), (1, 2)], "duplicate edge (1, 2)"),
    ([(0, 1), (0, 1)], "duplicate edge (0, 1)"),
    ([(0, 1), (2, 2)], "self-loop at node 2"),
    ([(-1, 0)], "negative node id in edge (-1, 0)"),
    ([], "a graph needs at least one edge"),
])
def test_build_graph_reports_earliest_bad_row(pairs, message):
    with pytest.raises(DataError) as exc:
        build_graph(pairs)
    assert type(exc.value) is DataError
    assert str(exc.value) == message


def _reference_build(pairs):
    """The per-edge loop build_graph replaced: validation in input order,
    then canonical arrays from sorted (u, v) tuples."""
    seen = set()
    for u, v in pairs:
        if u < 0 or v < 0:
            raise DataError(f"negative node id in edge ({u}, {v})")
        if u == v:
            raise DataError(f"self-loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DataError(f"duplicate edge {key}")
        seen.add(key)
    if not seen:
        raise DataError("a graph needs at least one edge")
    ids = sorted({x for e in seen for x in e})
    index = {x: i for i, x in enumerate(ids)}
    edges = sorted((index[u], index[v]) for u, v in seen)
    adjacency = [[] for _ in ids]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return {"edges": edges, "degrees": [len(a) for a in adjacency],
            "original_ids": ids}


@given(pairs=st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
                      max_size=12))
def test_build_graph_matches_reference_loop(pairs):
    try:
        expected = _reference_build(pairs)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            build_graph(pairs)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    g = build_graph(np.array(pairs))
    assert g.edges.tolist() == [list(e) for e in expected["edges"]]
    assert g.degrees.tolist() == expected["degrees"]
    assert g.original_ids.tolist() == expected["original_ids"]


def test_array_and_iterable_inputs_agree():
    pairs = [(40, 10), (10, 20), (20, 30), (30, 40), (20, 40)]
    from_list = build_graph(pairs)
    from_array = build_graph(np.array(pairs, dtype=np.int64))
    from_iter = build_graph(iter(pairs))
    for g in (from_array, from_iter):
        for name in ("edges", "degrees", "original_ids"):
            assert np.array_equal(getattr(g, name), getattr(from_list, name))


@pytest.mark.parametrize("relabel", [
    lambda ids: 7 * ids + 3,
    lambda ids: ids + (ids >= ids[len(ids) // 2]),
    lambda ids: ids + 1,
    lambda ids: 2 ** 40 + 7 * ids + 3,
], ids=["7v+3", "one-gap", "from-one", "near-2**40"])
@pytest.mark.parametrize("seed", range(3))
def test_relabeled_ids_build_equal_graphs(relabel, seed):
    """Ids relabeled monotonically, and so ranked by a sort, give the
    arrays of the graph on the original ids."""
    gen = np.random.default_rng(seed)
    pairs = gen.integers(0, 60, size=(150, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = pairs[np.unique(np.sort(pairs, axis=1), axis=0,
                            return_index=True)[1]]
    g0 = build_graph(pairs)
    new_ids = relabel(g0.original_ids)
    g = build_graph(new_ids[np.searchsorted(g0.original_ids, pairs)])
    for name in ("edges", "degrees"):
        got, want = getattr(g, name), getattr(g0, name)
        assert np.array_equal(got, want) and got.dtype == want.dtype, name
    assert np.array_equal(g.original_ids, new_ids)
    assert g.original_ids.dtype == np.int64


@given(data=st.data(), layout=st.sampled_from(
    ["0..n-1", "dense with a gap", "sparse", "negative"]))
def test_rank_ids_matches_numpy_unique(data, layout):
    """Ids exactly 0..n-1 are their own ranks, and any other ids, dense
    with a gap, sparse or negative, are ranked by a sort; both give
    ``np.unique``'s ids and inverse."""
    n = data.draw(st.integers(1, 40))
    ids = np.arange(n)
    if layout == "dense with a gap":
        ids = np.delete(np.arange(n + 1), data.draw(st.integers(0, n - 1)))
    elif layout == "sparse":
        ids = np.unique(data.draw(st.lists(st.integers(10 ** 6, 2 ** 62),
                                           min_size=n, max_size=n)))
    elif layout == "negative":
        ids = np.unique(data.draw(st.lists(st.integers(-50, 50),
                                           min_size=n, max_size=n))
                        + [-1])
    extra = data.draw(st.lists(st.sampled_from(ids.tolist()), max_size=40))
    values = np.array(data.draw(st.permutations(ids.tolist() + extra)),
                      dtype=np.int64)
    got_ids, got_rank = graph_module._rank_ids(values)
    want_ids, want_rank = np.unique(values, return_inverse=True)
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got_rank, want_rank)
    assert got_ids.dtype == got_rank.dtype == np.int64
    assert np.shares_memory(got_rank, values) == (layout == "0..n-1")


def test_sparse_ids_compacted():
    g = build_graph([(10, 30), (30, 20)])
    assert g.node_count == 3
    assert g.original_ids.tolist() == [10, 20, 30]
    # node 30 -> compact 2, connected to 10 (0) and 20 (1)
    assert g.edges.tolist() == [[0, 2], [1, 2]]


@given(edges=edge_lists(max_nodes=8), data=st.data())
def test_build_graph_order_invariant(edges, data):
    g1 = build_graph(edges)
    perm = data.draw(st.permutations(edges))
    flipped = [(v, u) if data.draw(st.booleans()) else (u, v)
               for u, v in perm]
    g2 = build_graph(flipped)
    assert g1.node_count == g2.node_count
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.degrees, g2.degrees)
    assert np.array_equal(g1.original_ids, g2.original_ids)


@given(edges=edge_lists(max_nodes=12), data=st.data(),
       layout=st.sampled_from(["increasing", "shuffled", "repeat at end"]),
       offset=st.sampled_from([0, 5, 2 ** 40]))
def test_build_graph_on_sorted_shuffled_and_repeated_keys(edges, data,
                                                          layout, offset):
    """Keys already strictly increasing skip the sort; shuffled keys, and
    increasing keys ending in a repeat (either orientation), take it.  All
    give the referee's arrays or its earliest-bad-row error."""
    pairs = sorted(edges)
    if layout == "shuffled":
        pairs = data.draw(st.permutations(pairs))
    elif layout == "repeat at end":  # keys increasing, not strictly
        u, v = pairs[-1]
        pairs.append(data.draw(st.sampled_from([(u, v), (v, u)])))
    pairs = np.array(pairs, dtype=np.int64) + offset
    try:
        want = sorting_build_graph(pairs)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            build_graph(pairs)
        assert str(got.value) == str(exc)
        return
    g = build_graph(pairs)
    for name in ("edges", "degrees", "original_ids"):
        assert np.array_equal(getattr(g, name), getattr(want, name)), name


@given(pairs=edge_lists(max_nodes=12))
def test_adjacency_matches_scipy(pairs):
    """The adjacency the search reads, built from the edges, equals
    scipy's canonical CSR form of the edge list."""
    g = build_graph(pairs)
    n, (u, v) = g.node_count, g.edges.T
    a = sp.csr_array((np.ones(2 * g.edge_count),
                      (np.concatenate([u, v]), np.concatenate([v, u]))),
                     shape=(n, n))
    a.sort_indices()
    indptr, neighbors = graph_module._adjacency(g)
    assert np.array_equal(neighbors, a.indices)
    assert np.array_equal(indptr, a.indptr)
    assert neighbors.dtype == indptr.dtype == np.int64


@given(pairs=edge_lists(max_nodes=12), isolated=st.integers(0, 3))
def test_edge_columns_contiguous_and_divmod_of_keys(pairs, isolated):
    n = 1 + max(max(e) for e in pairs) + isolated
    keys = np.unique([u * n + v for u, v in pairs])
    g = Graph(n, keys, np.arange(n))
    for column, want in zip((g.edges[:, 0], g.edges[:, 1]),
                            np.divmod(keys, n)):
        assert column.flags.c_contiguous
        assert column.dtype == np.int64 and np.array_equal(column, want)
    assert np.array_equal(g.degrees, np.bincount(g.edges.ravel(), None, n))


def test_generate_path_leaves_adjacency_unbuilt(monkeypatch, tmp_path):
    """Generating, rewiring, labeling, summarizing and writing a graph never
    sorts its arcs nor multiplies by the adjacency (its poll responses go
    unread); graph_flags builds the adjacency once, and its cached flags
    build none."""
    builds, products = [], []
    build, matvec = graph_module._adjacency, Graph.adjacency_matvec

    def counted(g):
        builds.append(g)
        return build(g)

    def counted_matvec(g, x):
        products.append(g)
        return matvec(g, x)

    monkeypatch.setattr(graph_module, "_adjacency", counted)
    monkeypatch.setattr(Graph, "adjacency_matvec", counted_matvec)
    lg, _ = materialize(ExperimentConfig(
        graph_source=ConfigModelSpec(300, 2.4, k_max=30, seed=7),
        label_source=LabelTarget(0.3, target=0.1),
        rewire=RewireTarget(0.1), master_seed=7))
    assortativity(lg.graph), degree_label_corr(lg)
    write_edge_list(lg.graph, tmp_path / "g.edges")
    write_labels(lg, tmp_path / "g.labels")
    assert builds == [] and products == [] and lg._responses is None
    assert graph_flags(lg.graph) is graph_flags(lg.graph)
    assert builds == [lg.graph]


def test_true_fraction_examples(star, c4):
    assert LabeledGraph(star, [1, 0, 0, 0]).true_fraction == 0.25
    assert LabeledGraph(star, [0, 0, 0, 0]).true_fraction == 0.0
    assert LabeledGraph(c4, [1, 0, 1, 0]).true_fraction == 0.5


def test_poll_response_examples(star_lg, k3_lg):
    assert star_lg.responses[0] == 0.0   # center sees three 0-labels
    assert star_lg.responses[1] == 1.0   # leaf's only neighbor is center
    assert k3_lg.responses[1] == 0.5


def test_label_validation(star, k3):
    with pytest.raises(DataError, match=r"^label vector length \(3,\) != "):
        LabeledGraph(star, [1, 0, 0])
    for labels in ([1, 0, 0, 2], [0.5, 1.7, 0, 0]):
        with pytest.raises(DataError, match="^labels must be 0 or 1$"):
            LabeledGraph(star, labels)
    lg = LabeledGraph(k3, [1.0, 0.0, 1.0])
    assert lg.labels.dtype == np.int64 and lg.labels.tolist() == [1, 0, 1]


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
    # a triangle, a star, and two bipartite components of one edge
    [(0, 1), (1, 2), (2, 0)],
    [(0, 1), (0, 2), (0, 3)],
    [(0, 1), (2, 3)],
    # two bipartite components
    [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)],
    # an odd cycle in the first, the second and the third component
    [(0, 1), (1, 2), (2, 0), (3, 4)],
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


@st.composite
def shaped_edge_lists(draw):
    """A star whose hub has 5 to 12 leaves, then up to three paths, even
    cycles, complete bipartite graphs or random edge lists, each joined to
    the nodes before it by one edge or left apart, under shuffled ids."""
    pairs = []
    shapes = ["star"] + draw(st.lists(st.sampled_from(
        ["path", "even cycle", "bipartite", "random"]), max_size=3))
    for shape in shapes:
        if shape == "star":
            part = [(0, j) for j in range(1, draw(st.integers(5, 12)) + 1)]
        elif shape == "path":
            part = [(j, j + 1) for j in range(draw(st.integers(1, 8)))]
        elif shape == "even cycle":
            k = 2 * draw(st.integers(2, 4))
            part = [(j, (j + 1) % k) for j in range(k)]
        elif shape == "bipartite":
            a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            part = [(i, a + j) for i in range(a) for j in range(b)]
        else:
            part = draw(edge_lists(max_nodes=7))
        offset = 1 + max(max(e) for e in pairs) if pairs else 0
        if pairs and draw(st.booleans()):
            pairs.append((draw(st.integers(0, offset - 1)), offset))
        pairs += [(u + offset, v + offset) for u, v in part]
    n = 1 + max(max(e) for e in pairs)
    ids = draw(st.permutations(range(n)))
    return [(ids[u], ids[v]) for u, v in pairs]


@given(pairs=shaped_edge_lists(), block=st.integers(1, 4))
def test_blocked_bfs_matches_scipy_and_networkx(pairs, block):
    """With blocks of a few arcs, which a hub's arcs alone exceed, the BFS
    depths from node 0 are scipy's unweighted distances, and the flags are
    scipy's component count and networkx's bipartiteness."""
    g = build_graph(pairs)
    n, (u, v) = g.node_count, g.edges.T
    a = sp.csr_array((np.ones(2 * g.edge_count),
                      (np.concatenate([u, v]), np.concatenate([v, u]))),
                     shape=(n, n))
    depth = np.full(n, -1, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_BLOCK", block)
        graph_module._bfs_depths(g, *graph_module._adjacency(g), 0, depth)
        flags = graph_flags(g)
    want = csgraph.shortest_path(a, unweighted=True, indices=0)
    assert np.array_equal(depth, np.where(np.isinf(want), -1, want))
    components = csgraph.connected_components(a, directed=False)[0]
    assert flags == GraphFlags(
        connected=components == 1,
        bipartite=nx.is_bipartite(nx.Graph(g.edges.tolist())))


@given(lg=labeled_graphs())
def test_mean_label_is_true_fraction(lg):
    total = int(sum(int(x) for x in lg.labels))
    assert lg.true_fraction == total / lg.graph.node_count


@given(g=graphs(max_nodes=30), seed=st.integers(0, 2**32))
def test_adjacency_matvec_matches_scipy(g, seed):
    # the package's one A @ x against scipy's sparse product, built from
    # the edge list alone: within 1e-12 of the absolute sum for floats,
    # and exact for integers, whose float sums are exact in any order
    n, (u, v) = g.node_count, g.edges.T
    arcs = np.ones(2 * g.edge_count)
    a = sp.csr_array((arcs, (np.concatenate([u, v]), np.concatenate([v, u]))),
                     shape=(n, n))
    gen = stream(seed)
    x = gen.standard_normal(n)
    assert (np.abs(g.adjacency_matvec(x) - a @ x)
            <= 1e-12 * (a @ np.abs(x))).all()
    k = gen.integers(-2**40, 2**40, size=n)
    assert g.adjacency_matvec(k).dtype == np.float64
    assert np.array_equal(g.adjacency_matvec(k), a @ k)


@given(lg=labeled_graphs())
def test_responses_are_rounded_exact_fractions(lg):
    # each response is the correctly rounded count / degree, bit for bit:
    # the IP and UN columns keep their bytes under any summation order
    g, labels = lg.graph, lg.labels.tolist()
    counts = [0] * g.node_count
    for u, v in g.edges.tolist():
        counts[u] += labels[v]
        counts[v] += labels[u]
    for v, count in enumerate(counts):
        assert lg.responses[v] == float(Fraction(count, int(g.degrees[v])))


@given(lg=labeled_graphs())
def test_responses_computed_on_first_read_and_cached(lg):
    g = lg.graph
    assert lg._responses is None
    responses = lg.responses
    want = g.adjacency_matvec(lg.labels) / g.degrees
    assert responses.tobytes() == want.tobytes()
    assert lg.responses is responses
