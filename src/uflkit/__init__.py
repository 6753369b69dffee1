"""Uniform facility location on doubling point sets: random linear maps,
randomized hierarchical decomposition, badly-cut-pair elimination, low-value
partitioning, and full approximation pipelines validated against brute force.
"""

from .geometry import (Net, OracleScaleError, PointSet, UflSolution, dist,
                       estimate_ddim, greedy_net, load_points, metric_stats,
                       save_points_binary, save_points_text, ufl_cost)
from .projection import RandomLinearMap, load_map, sample_map, save_map, target_dim
from .hierarchy import (HierarchicalDecomposition, MetricData, build_hierarchy,
                        dump_decomposition, is_badly_cut, is_cut, is_good_pair)
from .refine import RefinedDecomposition, consistency_check, eliminate_badly_cut
from .partition import (LowValuePartition, MatrixApproxHandle,
                        bottom_up_partition, local_value_bounds_check,
                        partition_properties_check, partition_to_csv)
from .solvers import (KMedianResult, SolverConfig, WeiszfeldResult, approx_ufl,
                      brute_force_ufl_continuous, brute_force_ufl_discrete,
                      kmedian, kmedian_restricted, weiszfeld_1median)
from .ptas import (DiscreteSolution, DistanceOracle, PtasConfig, candidate_set,
                   ptas_discrete, ptas_euclidean)
from .datasets import generate_dataset
from .experiments import (ExperimentSpec, run_dimred_experiment,
                          run_property_suite, run_ptas_experiment)

__version__ = "0.1.0"
