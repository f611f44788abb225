"""Exception types shared across the package.

Every input the pipeline cannot take (a malformed edge list, an
inconsistent generator spec, a graph an estimator cannot poll) raises
``DataError`` with a message naming the fault; only an unreached swap
target has a type of its own, because it carries the best-effort result.
A count argument (a budget, a replication count, a walk length, a seed)
that is not an integer in range, or is a ``bool``, fails ``require_count``;
an input line that is not UTF-8 fails ``require_utf8``.
"""

from numbers import Integral


class DataError(ValueError):
    """Bad input data or parameters: the CLI reports these and exits 1."""


def require_count(name: str, value, least: int):
    """``value`` if it is an integer >= ``least``; else ``DataError``.  A
    ``bool`` is no count, though Python counts it an integer."""
    if not isinstance(value, Integral) or isinstance(value, bool) \
            or value < least:
        raise DataError(f"{name} must be a count >= {least}, got {value!r}")
    return value


def require_utf8(path, lineno: int, line: str) -> str:
    """``line``, read with ``errors="surrogateescape"``, if its bytes are
    UTF-8; else a ``DataError`` names ``path:lineno`` and the bytes."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raw = line.strip().encode("utf-8", "surrogateescape")
        raise DataError(f"{path}:{lineno}: not UTF-8 text: {raw!r}") from None
    return line


class TargetUnreachableError(DataError, RuntimeError):
    """An iterative target (assortativity or degree-label correlation) was
    not reached.  Carries the best-effort result and the achieved value so
    callers can decide whether to keep it."""

    def __init__(self, message: str, achieved: float, result):
        super().__init__(f"{message} (achieved {achieved:.6f})")
        self.achieved = achieved
        self.result = result

