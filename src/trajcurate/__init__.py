"""Trajectory-state curation: clustering, novelty-aware sampling, surrogate benchmark."""

__version__ = "0.1.0"

from .cluster import (
    ClusterPartition,
    Dendrogram,
    Merge,
    flat_clusters,
    format_dendrogram,
    upgma_linkage,
)
from .io import write_distance_matrix
from .metric import (
    DEFAULT_WEIGHTS,
    CondensedDistanceMatrix,
    MetricWeights,
    pairwise_distances,
)
from .sampling import (
    SamplingConfig,
    Selection,
    SelectionManifest,
    plan_experiment_grid,
    sampling_round,
)
from .states import TrajectoryPool, estimate_dynamics
from .surrogate import (
    ExperimentResult,
    ExperimentRow,
    run_al_experiment,
    stratified_holdout,
)
from .synth import (
    MotifSpec,
    SyntheticPoolSpec,
    canonical_pool_spec,
    synthetic_pool,
)

__all__ = [
    "ClusterPartition",
    "CondensedDistanceMatrix",
    "DEFAULT_WEIGHTS",
    "Dendrogram",
    "ExperimentResult",
    "ExperimentRow",
    "Merge",
    "MetricWeights",
    "MotifSpec",
    "SamplingConfig",
    "Selection",
    "SelectionManifest",
    "SyntheticPoolSpec",
    "TrajectoryPool",
    "canonical_pool_spec",
    "estimate_dynamics",
    "flat_clusters",
    "format_dendrogram",
    "pairwise_distances",
    "plan_experiment_grid",
    "run_al_experiment",
    "sampling_round",
    "stratified_holdout",
    "synthetic_pool",
    "upgma_linkage",
    "write_distance_matrix",
]
