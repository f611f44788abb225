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

from .errors import BipartiteWalkWarning, DisconnectedGraphError
from .graph import LabeledGraph, graph_flags
from .sampling import (RandomStream, default_walk_length,
                       random_walk_endpoints, sample_friends_of_random_nodes,
                       sample_random_nodes)

ESTIMATOR_KINDS = ("IP", "UN", "RW", "FN")

# Stable codes used to derive per-estimator substreams.
ESTIMATOR_CODES = {kind: i for i, kind in enumerate(ESTIMATOR_KINDS)}

# Draws one batch of replications may hold: 2**19 walk uniforms (4 MB), or
# respondents for the estimators that do not walk.
_BATCH_DRAWS = 1 << 19

_RESPONDENT_LAWS = {"IP": sample_random_nodes, "UN": sample_random_nodes,
                    "FN": sample_friends_of_random_nodes}


def poll_values(kind: str, lg: LabeledGraph, budget: int, seeds, *,
                walk_length: int | None = None,
                lazy_walk: bool = False) -> np.ndarray:
    """One ``kind`` estimate of ``budget`` respondents per seed, in seed
    order; ``poll_values(kind, lg, b, [seed])[0]`` is a single estimate.

    A seed is an integer or a ``numpy.random.SeedSequence``.  Estimate r
    draws its respondents, or its walk starts and then its
    ``(length, budget)`` uniforms, from ``RandomStream(seeds[r])`` alone, so
    its value does not depend on the other seeds.  Batches of at most
    ``_BATCH_DRAWS`` draws walk together and average their respondent
    matrix by rows.

    ``RW`` walks start from uniform nodes and run ``walk_length`` steps
    (default: ten sweeps of log2 n).  They need a connected graph, checked
    once per call; on a bipartite graph a plain walk has no stationary law
    and warns, while ``lazy_walk`` (stay put with probability 1/2) mixes.
    """
    if kind not in ESTIMATOR_CODES or budget < 1:
        raise ValueError(f"unknown estimator kind {kind!r} or budget < 1")
    g = lg.graph
    length = 1
    if kind == "RW":
        flags = graph_flags(g)
        if not flags.connected:
            raise DisconnectedGraphError(
                "random-walk polling requires a connected graph")
        if flags.bipartite and not lazy_walk:
            warnings.warn("graph is bipartite: plain random walks have no "
                          "stationary law", BipartiteWalkWarning)
        length = default_walk_length(g.node_count) if walk_length is None \
            else walk_length
    per_batch = max(1, _BATCH_DRAWS // (budget * max(length, 1)))
    table = lg.labels if kind == "IP" else lg.responses
    values = np.empty(len(seeds))
    for lo in range(0, len(seeds), per_batch):
        streams = [RandomStream(s) for s in seeds[lo:lo + per_batch]]
        if kind == "RW":
            starts = np.concatenate([sample_random_nodes(g, rs, budget)
                                     for rs in streams])
            # a lone stream draws its uniforms step by step instead
            uniforms = streams[0] if len(streams) == 1 else np.hstack(
                [rs.generator.random((length, budget)) for rs in streams])
            picks = random_walk_endpoints(g, starts, length, uniforms,
                                          lazy=lazy_walk)
            picks = picks.reshape(len(streams), budget)
        else:
            picks = np.stack([_RESPONDENT_LAWS[kind](g, rs, budget)
                              for rs in streams])
        values[lo:lo + len(streams)] = table[picks].mean(axis=1)
    return values
