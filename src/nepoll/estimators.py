"""The four polling estimators.

Every estimator queries ``budget`` individuals with replacement and returns
the mean of their responses, so each estimate is an average of values in
[0, 1]:

* ``IP`` intent polling -- uniform nodes report their own label,
* ``UN`` naive neighborhood polling -- uniform nodes report the labeled
  fraction of their neighborhood,
* ``RW`` random-walk polling -- each respondent is the endpoint of an
  independent random walk, so for long walks respondents are distributed
  like random friends (degree-proportionally),
* ``FN`` friend polling -- uniform nodes forward the question to one
  uniform neighbor.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BipartiteWalkWarning, DataError
from .graph import LabeledGraph, graph_flags
from .sampling import (random_walk_endpoints,
                       sample_friends_of_random_nodes, sample_random_nodes,
                       walk_law)

ESTIMATOR_KINDS = ("IP", "UN", "RW", "FN")

# Stable codes that key each (estimator, budget) cell's stream.
ESTIMATOR_CODES = {kind: i for i, kind in enumerate(ESTIMATOR_KINDS)}

# Doubles one batch of replications may draw at once: 2**18 (2 MB).  A
# batch this size fits in the heap that graph generation leaves free, so
# peak memory does not depend on the seed; 4 MB batches did not always fit.
_BATCH_DRAWS = 1 << 18


def poll_values(kind: str, lg: LabeledGraph, budget: int,
                gen: np.random.Generator, reps, *,
                walk_length: int | None = None) -> np.ndarray:
    """Replications ``reps`` (a count or a step-1 ``range``) of a ``kind``
    estimate of ``budget`` respondents from the stream ``gen``, such as
    ``stream(seed)``.

    Replication r reads doubles ``[r*k, (r+1)*k)`` of ``gen`` alone, counted
    from its state at the call, as ``rows`` rows of ``budget`` uniforms:
    row 0 picks the respondents or walk starts ``floor(u * n)``, row 1 of
    ``FN`` their neighbors ``floor(u * d)``, rows 1 .. L of ``RW`` the walk
    steps.  Batches of at most ``_BATCH_DRAWS`` doubles are drawn at once;
    a larger ``RW`` replication draws its steps row by row, which reads the
    same bits.

    ``RW`` walks start from uniform nodes and run ``walk_length`` steps
    (default: the certified length of :func:`walk_law`, computed once per
    call).  They need a connected graph, checked once per call; on a
    bipartite graph the walk has no stationary law and warns.
    """
    if kind not in ESTIMATOR_CODES:
        raise DataError(f"unknown estimator kind {kind!r}")
    if budget < 1:
        raise DataError(f"budget must be >= 1, got {budget!r}")
    if walk_length is not None and walk_length < 0:
        raise DataError(f"walk_length must be >= 0, got {walk_length!r}")
    if isinstance(reps, (int, np.integer)) and reps >= 0:
        reps = range(reps)
    if not isinstance(reps, range) or reps.step != 1 or reps.start < 0:
        raise DataError("reps must be a count >= 0 or a step-1 range "
                        f"from >= 0, got {reps!r}")
    g = lg.graph
    rows = 2 if kind == "FN" else 1
    if kind == "RW":
        flags = graph_flags(g)
        if not flags.connected:
            raise DataError("random-walk polling requires a connected graph")
        if flags.bipartite:
            warnings.warn("graph is bipartite: plain random walks have no "
                          "stationary law", BipartiteWalkWarning)
        length = walk_law(g).length if walk_length is None \
            else walk_length
        rows += length
    k = rows * budget
    gen.bit_generator.advance(reps.start * k)
    per_batch = max(1, _BATCH_DRAWS // k)
    table = lg.labels if kind == "IP" else lg.responses
    values = np.empty(len(reps))
    for lo in range(0, len(reps), per_batch):
        m = min(per_batch, len(reps) - lo)
        if kind == "RW" and k > _BATCH_DRAWS:
            u, steps = gen.random((1, 1, budget)), gen
        else:
            u = gen.random((m, rows, budget))
            steps = u[:, 1:].transpose(1, 0, 2)
        picks = sample_friends_of_random_nodes(g, u[:, 0], u[:, 1]) \
            if kind == "FN" else sample_random_nodes(g, u[:, 0])
        if kind == "RW":
            picks = random_walk_endpoints(g, picks.ravel(), length, steps)
        values[lo:lo + m] = table[picks.reshape(m, budget)].mean(axis=1)
    return values
