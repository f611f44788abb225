"""Friendship-paradox polling on graphs.

Estimate the fraction of nodes carrying a binary label by polling
neighborhoods instead of individuals, with samplers biased toward
well-connected respondents, exact closed-form error analysis, synthetic
graph generators, and a reproducible Monte-Carlo sweep harness.
"""

from .analytics import (BudgetThreshold, ErrorBounds, NetworkStats,
                        ParadoxCheck, SpectralSummary,
                        brute_force_estimator_law, budget_threshold,
                        error_bounds, exact_error, friendship_paradox_check,
                        label_degree_covariance, mean_degree,
                        mean_label_friend, network_stats, spectral_summary)
from .config import ExperimentConfig, load_experiment_config
from .errors import DataError, TargetUnreachableError
from .estimators import ESTIMATOR_KINDS, poll_values, respondent_law
from .graph import Graph, GraphFlags, LabeledGraph, build_graph, graph_flags
from .harness import (Report, SweepRow, SWEEP_CSV_HEADER, default_budget_grid,
                      materialize, replicate, run_report, run_sweep,
                      sweep_labeled, write_sweep_csv)
from .io import (read_edge_list, read_labeled_graph, read_labels,
                 write_edge_list, write_labels)
from .netgen import (ConfigModelSpec, ErdosRenyiSpec, LabelTarget,
                     RewireTarget, assign_labels, configuration_model,
                     erdos_renyi, rewire_to_assortativity)
from .sampling import LawSampler, stream, walk_law

__version__ = "0.1.0"
