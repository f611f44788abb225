"""Exception types shared across the package.

Every input the pipeline cannot take (a malformed edge list, an
inconsistent generator spec, a graph an estimator cannot poll) raises
``DataError`` with a message naming the fault; only an unreached swap
target has a type of its own, because it carries the best-effort result.
A count argument (a budget, a replication count, a walk length) that is not
an integer in range fails ``require_count``.
"""

from numbers import Integral


class DataError(ValueError):
    """Bad input data or parameters: the CLI reports these and exits 1."""


def require_count(name: str, value, least: int):
    """``value`` if it is an integer >= ``least``; else ``DataError``."""
    if not isinstance(value, Integral) or value < least:
        raise DataError(f"{name} must be a count >= {least}, got {value!r}")
    return value


class TargetUnreachableError(DataError, RuntimeError):
    """An iterative target (assortativity or degree-label correlation) was
    not reached.  Carries the best-effort result and the achieved value so
    callers can decide whether to keep it."""

    def __init__(self, message: str, achieved: float, result):
        super().__init__(f"{message} (achieved {achieved:.6f})")
        self.achieved = achieved
        self.result = result

