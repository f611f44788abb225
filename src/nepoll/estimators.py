"""The four polling estimators.

Every estimator queries ``budget`` individuals with replacement and returns
the mean of their responses, so each estimate is an average of values in
[0, 1].  An estimator is its respondents' node law
(:func:`respondent_law`), the endpoint law of a walk from a uniform node,
and the table they answer from:

* ``IP`` intent polling -- uniform nodes (length 0) report their label,
* ``UN`` naive neighborhood polling -- uniform nodes (length 0) report the
  labeled fraction of their neighborhood,
* ``RW`` random-walk polling -- the endpoints of L-step walks report it,
  distributed like random friends (d/M) for long walks,
* ``FN`` friend polling -- uniform neighbors of uniform nodes (length 1)
  report it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, require_count
from .graph import Graph, LabeledGraph
from .sampling import LawSampler, WalkLaw, walk_law

ESTIMATOR_KINDS = ("IP", "UN", "RW", "FN")

# Doubles one batch of replications may draw at once: 2**16 (512 kB), so a
# batch and its temporaries fit in the heap that graph generation leaves
# free.  2 MB batches did not at n = 20k: a sweep faulted 2.7x the pages.
_BATCH_DRAWS = 1 << 16


def estimator_code(kind: str) -> int:
    """The stable code of ``kind`` that keys each (estimator, budget) cell's
    stream; an unknown kind raises ``DataError``."""
    if kind not in ESTIMATOR_KINDS:
        raise DataError(f"unknown estimator kind {kind!r}")
    return ESTIMATOR_KINDS.index(kind)


def respondent_law(g: Graph, kind: str,
                   walk: WalkLaw | None = None) -> np.ndarray:
    """Nonnegative weights, defined up to scale, of the node law a ``kind``
    respondent is drawn from, the endpoint law of a walk from a uniform
    node: unit weights (length 0) for ``IP`` and ``UN``, the one-step law
    ``walk_law(g, 1).law`` for ``FN``, and for ``RW`` the endpoint law
    ``walk.law`` of :func:`walk_law`, or the degrees (d/M) without a walk;
    the other kinds ignore ``walk``."""
    estimator_code(kind)
    if kind == "FN":
        return walk_law(g, 1).law
    if kind != "RW":
        return np.ones(g.node_count)
    if walk is None:
        return g.degrees
    if len(walk.law) != g.node_count:
        raise DataError("the walk law is not over the graph's nodes")
    return walk.law


def poll_values(kind: str, lg: LabeledGraph, budget: int,
                gen: np.random.Generator, reps, *,
                respondents: LawSampler | None = None) -> np.ndarray:
    """``reps`` replications of a ``kind`` estimate of ``budget``
    respondents from the stream ``gen``, such as ``stream(seed)``.

    Replication r reads doubles ``[r*b, (r+1)*b)`` of ``gen`` alone, for
    b = ``budget``, counted from its state at the call: each picks one
    respondent through ``respondents``, by default
    ``LawSampler(respondent_law(lg.graph, kind))``, so ``RW`` draws from
    d/M unless given a walk's law.  Batches of at most ``_BATCH_DRAWS``
    doubles, or one replication, are drawn at once.  So replications
    lo..hi of a stream are the ``hi - lo`` polled after advancing it
    ``lo * b`` doubles.  Every law here is defined on any graph: only the
    walk a sweep certifies for ``RW`` needs a connected one.
    """
    estimator_code(kind)
    require_count("budget", budget, 1)
    require_count("reps", reps, 0)
    g = lg.graph
    if respondents is None:
        respondents = LawSampler(respondent_law(g, kind))
    elif len(respondents.cdf) != g.node_count:
        raise DataError("the respondent law is not over the graph's nodes")
    per_batch = max(1, _BATCH_DRAWS // budget)
    table = lg.labels if kind == "IP" else lg.responses
    values = np.empty(reps)
    for lo in range(0, reps, per_batch):
        m = min(per_batch, reps - lo)
        picks = respondents(gen.random((m, budget)))
        values[lo:lo + m] = table[picks].mean(axis=1)
    return values
