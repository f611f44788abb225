import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from nepoll import (ConfigModelSpec, DataError, LabeledGraph, RewireTarget,
                    build_graph, configuration_model, read_edge_list,
                    read_labeled_graph, read_labels, rewire_to_assortativity,
                    stream, write_edge_list, write_labels)
from nepoll import io as nio
from nepoll.io import _rows_text

from _reference import (rows_text, searching_read_labels,
                        sorting_read_edge_list)
from _strategies import edge_lists

# the last id of each decimal width and the first of the next, and the
# ids around 2**32, where the writer switches from uint32 to uint64
EDGE_IDS = [0] + [x for p in range(1, 7) for x in (10 ** p - 1, 10 ** p)] \
    + [2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63 - 1]
ids = st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 10 ** 7),
                st.integers(0, 2 ** 63 - 1))


def test_edge_list_round_trip(tmp_path, star_chord):
    path = tmp_path / "g.edges"
    write_edge_list(star_chord, path)
    g = read_edge_list(path)
    assert np.array_equal(g.edges, star_chord.edges)
    assert np.array_equal(g.original_ids, star_chord.original_ids)


def test_edge_list_comments_and_duplicates(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# SNAP-style header\n"
                    "0 1\n"
                    "1 0\n"        # duplicate line, tolerated
                    "\n"
                    "1 2\n"
                    "0 1\n")       # duplicate again
    g = read_edge_list(path)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("edits", [
    {40: "self-loop"}, {40: "negative"}, {40: "duplicate"},
    {40: "duplicate", 300: "self-loop"}, {40: "self-loop", 300: "negative"},
    {40: "negative", 300: "self-loop"},
], ids=str)
@pytest.mark.parametrize("layout", ["as written", "flipped"])
def test_edited_written_file_reads_as_referee(tmp_path, edits, layout):
    """A file nepoll wrote, edited at some lines into a self-loop, a
    negative id or a repeat of an earlier edge, reads as the sorting
    referee reads it: a repeat is dropped, and the earliest bad row left
    raises the referee's error."""
    g, _ = configuration_model(ConfigModelSpec(200, 2.4, k_min=2, seed=4))
    rows = g.original_ids[g.edges]
    if layout == "flipped":
        rows = rows[:, ::-1]
    for line, edit in edits.items():
        u, v = (int(x) for x in rows[line])
        rows[line] = {"self-loop": (u, u), "negative": (-1, v),
                      "duplicate": rows[line // 2][::-1]}[edit]
    path = tmp_path / "g.edges"
    path.write_text("# written, then edited\n"
                    + "".join(f"{u} {v}\n" for u, v in rows.tolist()))
    try:
        want = sorting_read_edge_list(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_edge_list(path)
        assert str(got.value) == str(exc)
        first = min(line for line, e in edits.items() if e != "duplicate")
        assert str(exc).startswith(f"{path}:{first + 2}: {edits[first]}")
        return
    assert set(edits.values()) == {"duplicate"}
    got = read_edge_list(path)
    assert got.edge_count == g.edge_count - 1
    for name in ("edges", "degrees", "original_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_edge_list_errors_name_file_and_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# header\n0 1\n\n1 2 3\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:4: expected two node ids")):
        read_edge_list(path)
    path.write_text("0 1\n1 y\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:2: non-integer node id")):
        read_edge_list(path)
    path.write_text("0 1\n1 99999999999999999999\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: node id beyond int64 in '1 99999999999999999999'")):
        read_edge_list(path)
    # faults found after parsing, past a comment line and a repeated edge
    path.write_text("0 1\n# note\n1 0\n2 2\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:4: self-loop at node 2")):
        read_edge_list(path)
    path.write_text("0 1\n0 -1\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:2: negative node id in edge (0, -1)")):
        read_edge_list(path)
    # the earliest faulty line is named, a malformed one after it not
    path.write_text("0 1\n2 2\nfoo\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:2: self-loop at node 2")):
        read_edge_list(path)


@pytest.mark.parametrize("text", ["", "# header only\n\n"])
def test_empty_edge_list_names_file(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: a graph needs at least one edge")):
        read_edge_list(path)


def test_edge_list_inline_comment_accepted(tmp_path):
    """'#' starts a comment anywhere in a line, as in a '#' line."""
    path = tmp_path / "g.edges"
    path.write_text("0 1 # first edge\n1 2#second\n# 2 3\n")
    assert read_edge_list(path).edges.tolist() == [[0, 1], [1, 2]]


def test_edge_list_python_integer_spellings(tmp_path):
    """Lines numpy will not parse but int() does are read line by line."""
    path = tmp_path / "g.edges"
    path.write_text("+1 1_000\n1_000 7\n")
    g = read_edge_list(path)
    assert g.original_ids.tolist() == [1, 7, 1000]
    assert g.edge_count == 2


def test_edge_list_round_trip_rewired_20k(tmp_path):
    g, _ = configuration_model(ConfigModelSpec(
        node_count=20_000, power_law_exponent=2.4, k_min=3, k_max=350,
        seed=3))
    g = rewire_to_assortativity(g, RewireTarget(0.02, tolerance=0.005),
                                stream(3))
    first, second = tmp_path / "a.edges", tmp_path / "b.edges"
    write_edge_list(g, first)
    loaded = read_edge_list(first)
    write_edge_list(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for name in ("edges", "degrees", "original_ids"):
        assert np.array_equal(getattr(loaded, name), getattr(g, name)), name


@given(rows=st.lists(st.tuples(ids, ids), min_size=1, max_size=30)
       | st.lists(st.tuples(ids, st.integers(0, 1)), min_size=1,
                  max_size=30))
def test_rows_text_matches_percent_format(rows):
    """Edge rows, and label rows whose second column is 0 or 1."""
    rows = np.array(rows, dtype=np.int64)
    assert _rows_text(rows) == rows_text(rows)


@pytest.mark.parametrize("rows", [
    [[0, 0]],
    [[7, 1]],
    [[x, x] for x in EDGE_IDS],
    [[x, x % 2] for x in EDGE_IDS],
    [[2 ** 32, 2 ** 32 - 1]],
    [[2 ** 63 - 1, 0], [0, 2 ** 63 - 1]],
])
def test_rows_text_at_width_and_dtype_edges(rows):
    rows = np.array(rows, dtype=np.int64)
    assert _rows_text(rows) == rows_text(rows)


@pytest.mark.parametrize("offset, scale", [
    (3, 7), (2 ** 32, 1), (2 ** 40 + 3, 7), (2 ** 32, 2 ** 24)])
def test_edge_list_round_trip_sparse_ids(tmp_path, offset, scale):
    """Sparse ids and ids above 2**32 load to the graph ``build_graph``
    makes of the pairs, and write back the same bytes.  With the last
    scale the ids span more than 2**31, so the reader ranks them to find
    repeated edges."""
    gen = np.random.default_rng(5)
    pairs = gen.permutation(np.unique(np.sort(
        gen.integers(0, 300, size=(900, 2)), axis=1), axis=0))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]] * scale + offset
    g = build_graph(pairs)
    path = tmp_path / "g.edges"
    path.write_bytes(rows_text(pairs))
    loaded = read_edge_list(path)
    for name in ("edges", "degrees", "original_ids"):
        assert np.array_equal(getattr(loaded, name), getattr(g, name)), name
        assert getattr(loaded, name).dtype == getattr(g, name).dtype, name
    write_edge_list(loaded, path)
    lines = path.read_bytes().split(b"\n", 1)[1]
    assert lines == rows_text(g.original_ids[g.edges])


@pytest.mark.parametrize("rows_per_block", [1, 3, 7])
@pytest.mark.parametrize("offset", [0, 2 ** 32 - 50])
def test_writers_write_one_block_bytes_in_any_block_size(
        tmp_path, monkeypatch, rows_per_block, offset):
    """Blocks whose ids cross a digit count (9 to 10, 99 to 101, 999 to
    1000) or, shifted, 2**32 (the uint64 digit type) inside them write
    the bytes of one block."""
    ids = np.array([7, 8, 9, 10, 11, 98, 99, 100, 101, 999, 1000]) + offset
    pairs = np.column_stack([ids[:-1], ids[1:]])
    pairs = np.concatenate([pairs, [[ids[0], ids[-1]], [ids[2], ids[7]]]])
    lg = LabeledGraph(build_graph(pairs), np.arange(len(ids)) % 2)
    files = []
    for rows in (len(pairs), rows_per_block):  # one block, then several
        monkeypatch.setattr(nio, "_BLOCK", rows)
        write_edge_list(lg.graph, tmp_path / f"{rows}.edges")
        write_labels(lg, tmp_path / f"{rows}.labels")
        files.append([(tmp_path / f"{rows}.{ext}").read_bytes()
                      for ext in ("edges", "labels")])
    assert files[1] == files[0]
    g = lg.graph
    assert files[0][0].split(b"\n", 1)[1] \
        == rows_text(g.original_ids[g.edges])


@st.composite
def real_data_layouts(draw):
    """The lines of an edge file with shuffled, flipped and repeated lines
    over dense, sparse or wide ids, and of a shuffled label file with
    missing nodes, unknown nodes, bad labels and nodes labeled twice; now
    and then either file holds a malformed line, and the edge file a
    self-loop."""
    edges = draw(edge_lists(max_nodes=12))
    id_layout = draw(st.sampled_from(["dense", "sparse", "wide"]))
    n = 1 + max(max(e) for e in edges)
    if id_layout == "dense":
        ids = np.arange(n)
    elif id_layout == "sparse":
        ids = np.cumsum(draw(st.lists(st.integers(1, 10 ** 8),
                                      min_size=n, max_size=n)))
    else:
        ids = 2 ** 32 + 2 ** 24 * np.arange(n)
    pairs = ids[np.array(draw(st.permutations(edges)))]
    flips = np.array(draw(st.lists(st.booleans(), min_size=len(pairs),
                                   max_size=len(pairs))))
    pairs[flips] = pairs[flips][:, ::-1]
    lines = [f"{u} {v}" for u, v in pairs.tolist()]
    for at, row in draw(st.lists(st.tuples(
            st.integers(0, len(lines)), st.integers(0, len(lines) - 1)),
            max_size=4)):
        lines.insert(at, lines[row])        # a repeated edge, as written
    for fault in (f"{ids[0]} {ids[0]}", "foo"):  # a self-loop, a bad line
        if draw(st.sampled_from([False] * 7 + [True])):
            lines.insert(draw(st.integers(0, len(lines))), fault)
    unknown = [-1, int(ids[-1]) + 1, 2 ** 62]
    if id_layout != "dense":
        unknown.append(int(ids[0]) + 1)     # between two ids
    labels = [f"{v} {draw(st.integers(0, 1))}"
              for v in draw(st.permutations(ids.tolist()))
              if draw(st.booleans())]
    for fault in draw(st.lists(st.sampled_from(
            ["unknown", "bad label", "twice", "malformed"]), max_size=2)):
        if fault == "unknown":
            line = f"{draw(st.sampled_from(unknown))} 1"
        elif fault == "bad label":
            line = f"{ids[-1]} {draw(st.sampled_from([-1, 2, 7]))}"
        elif fault == "malformed":
            line = f"{ids[-1]}"
        else:   # the same node's line twice
            line = f"{draw(st.sampled_from(ids.tolist()))} 0"
            labels.insert(draw(st.integers(0, len(labels))), line)
        labels.insert(draw(st.integers(0, len(labels))), line)
    return lines, labels


@settings(max_examples=150, deadline=None)
@given(files=real_data_layouts())
# a faulty row before a malformed line is reported, the line not
@example(files=(["0 1", "2 2", "foo"], []))
def test_readers_on_real_data_layout_match_referee(tmp_path_factory, files):
    """Files of real-data layout read as the referee reads them: the same
    arrays, labels and defaulted count, or the same error text."""
    lines, labels = files
    folder = tmp_path_factory.getbasetemp()
    edge_path, label_path = folder / "layout.edges", folder / "layout.labels"
    edge_path.write_text("# edges\n" + "".join(f"{x}\n" for x in lines))
    label_path.write_text("# labels\n\n" + "".join(f"{x}\n" for x in labels))

    try:
        want = sorting_read_edge_list(edge_path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_edge_list(edge_path)
        assert str(got.value) == str(exc)
        return
    g = read_edge_list(edge_path)
    for name in ("edges", "degrees", "original_ids"):
        assert np.array_equal(getattr(g, name), getattr(want, name)), name
    try:
        want_labels = searching_read_labels(label_path, want)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_labels(label_path, g)
        assert str(got.value) == str(exc)
        return
    got_labels, defaulted = read_labels(label_path, g)
    assert np.array_equal(got_labels, want_labels[0])
    assert defaulted == want_labels[1]


def test_labels_round_trip(tmp_path, star):
    lg = LabeledGraph(star, [1, 0, 1, 0])
    path = tmp_path / "g.labels"
    write_labels(lg, path)
    labels, defaulted = read_labels(path, star)
    assert labels.tolist() == [1, 0, 1, 0]
    assert defaulted == 0


def test_labels_missing_default_zero(tmp_path, star):
    path = tmp_path / "g.labels"
    path.write_text("# partial\n0 1\n2 1\n")
    labels, defaulted = read_labels(path, star)
    assert labels.tolist() == [1, 0, 1, 0]
    assert defaulted == 2


def test_labels_respect_original_ids(tmp_path):
    g = build_graph([(100, 200), (200, 300)])
    path = tmp_path / "g.labels"
    path.write_text("300 1\n100 0\n200 1\n")
    labels, defaulted = read_labels(path, g)
    assert labels.tolist() == [0, 1, 1]
    assert defaulted == 0


@pytest.mark.parametrize("text, line, message", [
    ("0 1\nx 1\n", 2, "non-integer node id or label in 'x 1'"),
    ("0 1\n1 z\n", 2, "non-integer node id or label in '1 z'"),
    ("0 1\n-99999999999999999999 1\n", 2,
     "node id or label beyond int64 in '-99999999999999999999 1'"),
    ("# c\n0 1\n9 1\n", 3, "node 9 is not in the graph"),
    ("0 1\n\n1 3\n", 3, "label must be 0 or 1, got 3"),
    ("0 1\n1 0\n0 0\n", 3, "node 0 labeled twice"),
    ("0 1\n1 0 1\n", 2, "expected '<node_id> <0|1>', got '1 0 1'"),
    # a bad label before a malformed line is reported first
    ("0 1\n2 5\n1\n", 2, "label must be 0 or 1, got 5"),
    ("0 1\n1\n2 5\n", 2, "expected '<node_id> <0|1>', got '1'"),
])
def test_label_errors_name_file_and_line(tmp_path, star, text, line,
                                         message):
    path = tmp_path / "g.labels"
    path.write_text(text)
    where = f"{path}:{line}: {message}"
    with pytest.raises(DataError, match=f"^{re.escape(where)}$"):
        read_labels(path, star)


def test_read_labeled_graph(tmp_path, star):
    lg = LabeledGraph(star, [1, 0, 0, 0])
    write_edge_list(star, tmp_path / "g.edges")
    write_labels(lg, tmp_path / "g.labels")
    loaded, defaulted = read_labeled_graph(tmp_path / "g.edges",
                                           tmp_path / "g.labels")
    assert loaded.true_fraction == 0.25
    assert defaulted == 0
