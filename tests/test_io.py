import re

import numpy as np
import pytest

from nepoll import (ConfigModelSpec, LabeledGraph, RewireTarget, SelfLoopError,
                    build_graph, configuration_model, read_edge_list,
                    read_labeled_graph, read_labels, rewire_to_assortativity,
                    stream, write_edge_list, write_labels)


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


def test_edge_list_self_loop_still_rejected(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n2 2\n")
    with pytest.raises(SelfLoopError):
        read_edge_list(path)


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="expected two node ids"):
        read_edge_list(path)
    path.write_text("0 x\n")
    with pytest.raises(ValueError, match="non-integer"):
        read_edge_list(path)


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
    for name in ("edges", "indptr", "neighbors", "degrees", "original_ids"):
        assert np.array_equal(getattr(loaded, name), getattr(g, name)), name


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


def test_labels_errors(tmp_path, star):
    path = tmp_path / "g.labels"
    path.write_text("9 1\n")
    with pytest.raises(ValueError, match="not in"):
        read_labels(path, star)
    path.write_text("0 3\n")
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        read_labels(path, star)
    path.write_text("0 1\n0 0\n")
    with pytest.raises(ValueError, match="labeled"):
        read_labels(path, star)


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
    with pytest.raises(ValueError) as exc:
        read_labels(path, star)
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_read_labeled_graph(tmp_path, star):
    lg = LabeledGraph(star, [1, 0, 0, 0])
    write_edge_list(star, tmp_path / "g.edges")
    write_labels(lg, tmp_path / "g.labels")
    loaded, defaulted = read_labeled_graph(tmp_path / "g.edges",
                                           tmp_path / "g.labels")
    assert loaded.true_fraction == 0.25
    assert defaulted == 0
