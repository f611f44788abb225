"""Edge-list and label file readers/writers.

Edge lists use the common SNAP text layout: one edge per line as two
whitespace-separated integers, '#' starting a comment anywhere in a line.
Repeated edges are dropped.  Label files carry one ``<node_id> <0|1>``
line per node; nodes absent from the file default to label 0 and the
count of such defaults is returned to the caller.  Errors in a file name
``path:line``: a byte that is not UTF-8, a malformed line, and a fault
found after parsing (a self-loop, a negative id, an unknown or
twice-labeled node).  The writers emit plain ASCII bytes: a ``#`` header
line, then one ``"a b\n"`` line per edge or node, each integer in decimal
without leading zeros, formatted ``_BLOCK`` rows at a time.

A file the edge writer wrote lists its edges sorted and distinct over ids
0..n-1, so reading it back ranks the ids by identity and sorts nothing;
nor does reading labels of ids 0..n-1 search them.
"""

from __future__ import annotations

import itertools
import os
import warnings
from typing import Union

import numpy as np

from .errors import DataError, require_utf8
from .graph import (_BLOCK, Graph, LabeledGraph, _checked_graph,
                    _edge_keys, _first_claims)

PathLike = Union[str, os.PathLike]


def _data_lines(path: PathLike):
    """``(line number, stripped line, fields)`` of each line with data.  A
    line that is not UTF-8, comment or not, raises ``DataError``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            fields = require_utf8(path, lineno, raw).split("#", 1)[0].split()
            if fields:
                yield lineno, raw.strip(), fields


def _line_of(path: PathLike, row: int) -> int:
    """The line number of the ``row``-th data line of ``path``."""
    return next(itertools.islice(_data_lines(path), row, None))[0]


def _read_pairs(path: PathLike, expected: str,
                what: str) -> tuple[np.ndarray, DataError | None]:
    """``(rows, None)``, or the rows before the first malformed line and
    its error.  Files numpy rejects are parsed again line by line, which
    also reads spellings ``int`` takes and numpy does not (``1_000``)."""
    try:
        with warnings.catch_warnings():
            # e.g. "input contained no data"; older numpy also warns
            # before reading "1.0" as an integer
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2,
                              encoding="utf-8")
        if rows.shape[1] == 2:
            return rows, None
    except (ValueError, OverflowError, Warning):
        pass
    parsed, error = [], None
    try:
        for lineno, line, fields in _data_lines(path):
            if len(fields) != 2:
                problem = f"expected {expected}, got {line!r}"
            else:
                try:
                    parsed.append(np.int64([int(fields[0]), int(fields[1])]))
                    continue
                except ValueError:
                    problem = f"non-integer {what} in {line!r}"
                except OverflowError:
                    problem = f"{what} beyond int64 in {line!r}"
            raise DataError(f"{path}:{lineno}: {problem}")
    except DataError as exc:
        error = exc
    return np.array(parsed, dtype=np.int64).reshape(-1, 2), error


def read_edge_list(path: PathLike) -> Graph:
    """Read an edge list, dropping repeated edges.

    Its keys are built and checked once, by the steps of
    :func:`nepoll.graph.build_graph`; a repeat has the ids, key and faults
    of the row it repeats, so the earliest self-loop or negative id is never
    one.  That row names ``path:line``: only then are the lines read again.
    A malformed line is reported only if no fault comes earlier.
    """
    pairs, error = _read_pairs(path, "two node ids", "node id")
    if not len(pairs):
        raise error or DataError(f"{path}: a graph needs at least one edge")
    ids, _, edge_keys, loops = _edge_keys(pairs)
    return _checked_graph(pairs, ids, edge_keys, loops,
                          lambda row: f"{path}:{_line_of(path, row)}: ",
                          error)


def _digit_type(top: int) -> type:
    """The unsigned type the writers hold values up to ``top`` in: unsigned
    division by a constant 10 is several times cheaper than int64
    divmod."""
    return np.uint32 if top < 2 ** 32 else np.uint64


def _rows_text(rows: np.ndarray) -> bytes:
    """``b"a b\\n"`` for every row of a ``(k, 2)`` array of non-negative
    integers: the bytes ``"%d %d\\n"`` formats.

    One digit plane per decimal place, written with the separators into a
    ``(2k, width + 1)`` byte array; leading zeros are written as byte 0,
    and one boolean compress drops them.
    """
    top = int(rows.max())
    width = len(str(top))
    w = rows.astype(_digit_type(top), order="C", copy=False).ravel()
    text = np.empty((len(w), width + 1), dtype=np.uint8)
    for place in range(width - 1, -1, -1):
        q = w // 10
        digit = w - q * 10 + ord("0")
        if place < width - 1:
            digit *= w != 0     # w == 0 here: a leading zero
        text[:, place] = digit
        w = q
    ends = text[:, width].reshape(rows.shape)
    ends[:, :-1] = ord(" ")
    ends[:, -1] = ord("\n")
    return text[text != 0].tobytes()


def _write_rows(path: PathLike, header: str, count: int, rows) -> None:
    """Write ``header``, then ``rows(block)`` for each ``_BLOCK`` slice of
    ``count`` rows: without leading zeros, the bytes match one block."""
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, count, _BLOCK):
            fh.write(_rows_text(rows(slice(start, start + _BLOCK))))


def write_edge_list(g: Graph, path: PathLike) -> None:
    ids = g.original_ids
    ids = ids.astype(_digit_type(int(ids.max())))
    lo, hi = g.edges[:, 0], g.edges[:, 1]

    def rows(block):
        # each end's ids gathered into one C-ordered array of the digit
        # type: no int64 pairs, and no transposing cast of the
        # column-major edges
        out = np.empty((len(lo[block]), 2), dtype=ids.dtype)
        out[:, 0] = ids[lo[block]]
        out[:, 1] = ids[hi[block]]
        return out

    _write_rows(path, f"# undirected edge list: {g.node_count} nodes, "
                      f"{g.edge_count} edges\n", g.edge_count, rows)


def read_labels(path: PathLike, g: Graph) -> tuple[np.ndarray, int]:
    """Read a label file for ``g``.

    Returns ``(labels, defaulted)`` where ``defaulted`` counts the nodes
    missing from the file that were assigned label 0.  An unknown node, a
    label other than 0 or 1, or a node labeled twice raises ``DataError``
    naming the first such line, or the first malformed line if that comes
    earlier, as ``path:line``.
    """
    rows, error = _read_pairs(path, "'<node_id> <0|1>'", "node id or label")
    node, value = rows[:, 0], rows[:, 1]
    ids, n = g.original_ids, g.node_count
    if ids[0] == 0 and ids[-1] == n - 1:  # ids 0..n-1: node v has id v
        index = np.clip(node, 0, n - 1)
    else:
        index = np.minimum(np.searchsorted(ids, node), n - 1)
    known = ids[index] == node
    bad = ~known | ((value != 0) & (value != 1))
    # the exact earliest-row mask only if some index occurs twice.  An
    # unknown node, clamped onto a node's index, may flag a later row of
    # that node, but is itself flagged first.
    if np.bincount(index, minlength=n).max() > 1:
        bad |= ~_first_claims(index[:, None])
    if bad.any():
        row = int(np.argmax(bad))
        lineno = _line_of(path, row)
        if not known[row]:
            problem = f"node {node[row]} is not in the graph"
        elif value[row] not in (0, 1):
            problem = f"label must be 0 or 1, got {value[row]}"
        else:
            problem = f"node {node[row]} labeled twice"
        raise DataError(f"{path}:{lineno}: {problem}")
    if error is not None:
        raise error
    labels = np.zeros(g.node_count, dtype=np.int64)
    labels[index] = value
    return labels, g.node_count - len(rows)


def read_labeled_graph(edge_path: PathLike,
                       label_path: PathLike) -> tuple[LabeledGraph, int]:
    g = read_edge_list(edge_path)
    labels, defaulted = read_labels(label_path, g)
    return LabeledGraph(g, labels), defaulted


def write_labels(lg: LabeledGraph, path: PathLike) -> None:
    ids, labels = lg.graph.original_ids, lg.labels
    _write_rows(path, f"# node labels: {len(ids)} nodes, "
                      f"true fraction {lg.true_fraction!r}\n", len(ids),
                lambda block: np.column_stack([ids[block], labels[block]]))
