"""Friendship-paradox polling on graphs.

Estimate the fraction of nodes carrying a binary label by polling
neighborhoods instead of individuals, with samplers biased toward
well-connected respondents, exact closed-form error analysis, synthetic
graph generators, and a reproducible Monte-Carlo sweep harness.
"""

from .analytics import (BudgetThreshold, ErrorReport, FosdCheck, NetworkStats,
                        ParadoxCheck, SpectralSummary, SPECTRAL_SIZE_CAP,
                        brute_force_estimator_law, budget_threshold,
                        exact_error_fn, exact_error_ip, exact_error_rw,
                        exact_error_un, fosd_check, friendship_paradox_check,
                        label_degree_covariance, mean_degree,
                        mean_label_friend, mean_label_neighbor,
                        mean_response_neighbor,
                        mean_response_neighbor_two_step, network_stats,
                        spectral_summary)
from .errors import (AssortativityUndefinedError, BipartiteWalkWarning,
                     DegenerateSpecError, DegreeLabelCorrUndefinedError,
                     DisconnectedGraphError, DuplicateEdgeError,
                     GraphBuildError, IsolatedNodeAfterRetriesError,
                     IsolatedNodeError, SelfLoopError, SizeCapExceededError,
                     TargetUnreachableError)
from .estimators import (ESTIMATOR_KINDS, PollConfig, PollEstimate, fn_nep,
                         intent_poll, naive_nep, run_estimator, rw_nep)
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
from .sampling import (RandomStream, default_walk_length,
                       random_walk_endpoints, sample_friends_of_random_nodes,
                       sample_random_friends, sample_random_nodes)

__version__ = "0.1.0"
