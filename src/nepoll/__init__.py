"""Friendship-paradox polling on graphs.

Estimate the fraction of nodes carrying a binary label by polling
neighborhoods instead of individuals, with samplers biased toward
well-connected respondents, exact closed-form error analysis, synthetic
graph generators, and a reproducible Monte-Carlo sweep harness.
"""

from .analytics import (BudgetThreshold, ErrorBounds, FosdCheck, NetworkStats,
                        ParadoxCheck, SpectralSummary,
                        brute_force_estimator_law, budget_threshold,
                        error_bounds, exact_error, fosd_check,
                        friendship_paradox_check, label_degree_covariance,
                        mean_degree, mean_label_friend, network_stats,
                        spectral_summary)
from .errors import (AssortativityUndefinedError, BipartiteWalkWarning,
                     DataError, DegenerateSpecError, DisconnectedGraphError,
                     DegreeLabelCorrUndefinedError, GraphBuildError,
                     DuplicateEdgeError, IsolatedNodeAfterRetriesError,
                     IsolatedNodeError, SelfLoopError,
                     SpectrumNotConvergedError, TargetUnreachableError)
from .estimators import ESTIMATOR_KINDS, poll_values
from .graph import Graph, GraphFlags, LabeledGraph, build_graph, graph_flags
from .harness import (ExperimentConfig, Report, SweepRow, SWEEP_CSV_HEADER,
                      default_budget_grid, load_experiment_config,
                      materialize, replicate, run_report, run_sweep,
                      sweep_labeled, write_sweep_csv)
from .io import (read_edge_list, read_labeled_graph, read_labels,
                 write_edge_list, write_labels)
from .netgen import (ConfigModelSpec, ErdosRenyiSpec, LabelTarget,
                     RewireTarget, assign_labels, configuration_model,
                     erdos_renyi, rewire_to_assortativity)
from .sampling import (default_walk_length, random_walk_endpoints,
                       sample_friends_of_random_nodes, sample_random_nodes,
                       stream)

__version__ = "0.1.0"
