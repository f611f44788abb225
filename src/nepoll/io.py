"""Edge-list and label file readers/writers.

Edge lists use the common SNAP text layout: one edge per line as two
whitespace-separated integers, '#' starting a comment anywhere in a line.
Repeated edges are dropped before validation.  Label files carry one
``<node_id> <0|1>`` line per node; nodes absent from the file default to
label 0 and the count of such defaults is returned to the caller.  Errors
in a file's lines name ``path:line``.  The writers emit plain ASCII bytes:
a ``#`` header line, then one ``"a b\n"`` line per edge or node, each
integer in decimal without leading zeros.  They format and write blocks of
``_BLOCK`` rows, so their transient memory grows with the block, not
with the file; a block's digit count is its own maximum's, and since no
number has leading zeros the bytes are those of a single block.

The edge reader makes one pass over the parsed rows: their lower and
higher ends are ranked once, in one buffer, and each row's key is built
and checked once, by the steps :func:`nepoll.graph.build_graph` takes.  A
file the edge writer wrote lists its edges sorted and distinct over ids
0..n-1, so reading it back ranks the ids by identity and sorts nothing;
nor does reading labels of ids 0..n-1 search them.
"""

from __future__ import annotations

import itertools
import os
import warnings
from typing import Union

import numpy as np

from .errors import DataError
from .graph import (_BLOCK, Graph, LabeledGraph, _checked_graph,
                    _edge_keys, _first_claims)

PathLike = Union[str, os.PathLike]


def _data_lines(path: PathLike):
    """``(line number, stripped line, fields)`` of each line with data."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            fields = raw.split("#", 1)[0].split()
            if fields:
                yield lineno, raw.strip(), fields


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
    for lineno, line, fields in _data_lines(path):
        if len(fields) != 2:
            error = f"expected {expected}, got {line!r}"
            break
        try:
            parsed.append(np.int64([int(fields[0]), int(fields[1])]))
        except ValueError:
            error = f"non-integer {what} in {line!r}"
            break
        except OverflowError:
            error = f"{what} beyond int64 in {line!r}"
            break
    rows = np.array(parsed, dtype=np.int64).reshape(-1, 2)
    return rows, None if error is None else DataError(
        f"{path}:{lineno}: {error}")


def read_edge_list(path: PathLike) -> Graph:
    """Read an edge list, keeping the first line of each repeated edge.

    Its keys are built and checked once, by the steps of
    :func:`nepoll.graph.build_graph`, with repeated rows dropped where
    ``build_graph`` rejects them.  Dropping a row that repeats a kept one
    leaves the set of ids, and so their ranks and keys, as they are.
    """
    pairs, error = _read_pairs(path, "two node ids", "node id")
    if error is not None:
        raise error
    if not len(pairs):
        raise DataError(f"{path}: a graph needs at least one edge")
    ids, keys, edge_keys, loops = _edge_keys(pairs)
    if len(edge_keys) < len(keys):
        first = _first_claims(keys[:, None])
        pairs, loops = pairs[first], loops[first]
    return _checked_graph(pairs, ids, edge_keys, loops)


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
    """Write ``header``, then the text of ``count`` rows, ``rows(block)``
    giving those of each block slice of ``_BLOCK``."""
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
        lineno = next(itertools.islice(_data_lines(path), row, None))[0]
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
