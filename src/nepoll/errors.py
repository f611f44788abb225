"""Exception and warning types shared across the package."""


class DataError(ValueError):
    """Bad input data or parameters: the CLI reports these and exits 1."""


class GraphBuildError(DataError):
    """Base class for edge-list validation failures."""


class SelfLoopError(GraphBuildError):
    def __init__(self, node: int):
        super().__init__(f"self-loop at node {node}")
        self.node = node


class DuplicateEdgeError(GraphBuildError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.edge = (u, v)


class IsolatedNodeError(GraphBuildError):
    def __init__(self, node: int):
        super().__init__(f"node {node} has degree 0")
        self.node = node


class DisconnectedGraphError(DataError):
    """Raised when an operation requires a connected graph."""


class AssortativityUndefinedError(DataError):
    """Degree-degree correlation has a zero denominator (regular graph)."""


class DegreeLabelCorrUndefinedError(DataError):
    """Degree-label correlation has a zero denominator."""


class SpectrumNotConvergedError(DataError, RuntimeError):
    """The Lanczos run for lambda2 ran out of steps before converging."""


class DegenerateSpecError(DataError):
    """Generator parameters are inconsistent."""


class IsolatedNodeAfterRetriesError(DataError, RuntimeError):
    """Generator kept producing isolated nodes within its retry budget."""


class TargetUnreachableError(DataError, RuntimeError):
    """An iterative target (assortativity or degree-label correlation) was
    not reached.  Carries the best-effort result and the achieved value so
    callers can decide whether to keep it."""

    def __init__(self, message: str, achieved: float, result):
        super().__init__(f"{message} (achieved {achieved:.6f})")
        self.achieved = achieved
        self.result = result


class BipartiteWalkWarning(UserWarning):
    """Plain random walks on bipartite graphs have no stationary law."""
