"""The four polling estimators.

Every estimator queries ``budget`` individuals with replacement and returns
the mean of their responses, so each estimate is an average of values in
[0, 1]:

* ``IP`` intent polling -- uniform nodes report their own label,
* ``UN`` naive neighborhood polling -- uniform nodes report the labeled
  fraction of their neighborhood,
* ``RW`` random-walk polling -- respondents are drawn from the exact law of
  the endpoint of a walk from a uniform node, so for long walks they are
  distributed like random friends (degree-proportionally),
* ``FN`` friend polling -- uniform nodes forward the question to one
  uniform neighbor.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .graph import LabeledGraph, graph_flags
from .sampling import (LawSampler, WalkLaw, sample_friends_of_random_nodes,
                       sample_random_nodes, walk_law)

ESTIMATOR_KINDS = ("IP", "UN", "RW", "FN")

# Stable codes that key each (estimator, budget) cell's stream.
ESTIMATOR_CODES = {kind: i for i, kind in enumerate(ESTIMATOR_KINDS)}

# Doubles one batch of replications may draw at once: 2**18 (2 MB).  A
# batch this size fits in the heap that graph generation leaves free, so
# peak memory does not depend on the seed; 4 MB batches did not always fit.
_BATCH_DRAWS = 1 << 18


def poll_values(kind: str, lg: LabeledGraph, budget: int,
                gen: np.random.Generator, reps, *,
                walk: WalkLaw | None = None) -> np.ndarray:
    """``reps`` replications of a ``kind`` estimate of ``budget``
    respondents from the stream ``gen``, such as ``stream(seed)``.

    Replication r reads doubles ``[r*k, (r+1)*k)`` of ``gen`` alone, counted
    from its state at the call, as ``rows`` rows of ``budget`` uniforms:
    row 0 picks the respondents ``floor(u * n)``, or for ``RW`` the node at
    u of the inverse CDF of the walk's endpoint law; row 1 of ``FN`` picks
    their neighbors ``floor(u * d)``.  Batches of at most ``_BATCH_DRAWS``
    doubles, or one replication, are drawn at once.  So replications lo..hi
    of a stream are the ``hi - lo`` polled after advancing it ``lo * k``
    doubles.

    ``RW`` draws from the endpoint law ``walk`` of :func:`walk_law`
    (default: the certified length, computed once per call) and needs a
    connected graph, checked once per call.
    """
    if kind not in ESTIMATOR_CODES:
        raise DataError(f"unknown estimator kind {kind!r}")
    if budget < 1:
        raise DataError(f"budget must be >= 1, got {budget!r}")
    if not isinstance(reps, (int, np.integer)) or reps < 0:
        raise DataError(f"reps must be a count >= 0, got {reps!r}")
    g = lg.graph
    if kind == "RW":
        if not graph_flags(g).connected:
            raise DataError("random-walk polling requires a connected graph")
        if walk is None:
            walk = walk_law(g)
        elif len(walk.law) != g.node_count:
            raise DataError("the walk law is not over the graph's nodes")
        respondents = LawSampler(walk.law)
    rows = 2 if kind == "FN" else 1
    k = rows * budget
    per_batch = max(1, _BATCH_DRAWS // k)
    table = lg.labels if kind == "IP" else lg.responses
    values = np.empty(reps)
    for lo in range(0, reps, per_batch):
        m = min(per_batch, reps - lo)
        u = gen.random((m, rows, budget))
        if kind == "FN":
            picks = sample_friends_of_random_nodes(g, u[:, 0], u[:, 1])
        elif kind == "RW":
            picks = respondents(u[:, 0])
        else:
            picks = sample_random_nodes(g, u[:, 0])
        values[lo:lo + m] = table[picks].mean(axis=1)
    return values
