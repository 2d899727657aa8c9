"""Deterministic desk-scale simulator for graph federated learning with
semantic (class-wise Gaussian) and structural (spectral-energy) alignment,
plus the matching theory diagnostics (KL bounds, filter stability,
contraction/error-floor analysis).
"""

from .cluster import kmeans
from .config import (ExperimentConfig, PartitionSpec, build_dataset,
                     build_global_graph, load_config, parse_config,
                     two_regime_federation)
from .errors import (ConfigError, ContractError, FedssaError, InfeasibleError,
                     NumericError, ProtocolError, RankError, ShapeError,
                     TrainingDivergenceError, UndefinedMetricError)
from .federation import (ClientUpload, RoundMetrics, RunConfig, RunState,
                         ServerBroadcast, client_round, evaluate_client,
                         run_federation_detailed, run_round, server_step)
from .graphs import (FederationDataset, LocalGraph, SynthSpec, laplacian_powers,
                     load_dataset, load_graph, partition_nonoverlap,
                     partition_overlap, save_dataset, save_graph,
                     stratified_split, synth_dataset)
from .linalg import qr_thin
from .metrics import accuracy, auc
from .models import ClassGaussian, init_params, spectral_energy
from .rng import spawn_key, stream
from .semantic import SemanticClusterMap, build_semantic_map, gaussian_kl
from .structural import (SpectralEnergy, StructuralClusterMap,
                         build_structural_map, coeff_perturb_bound,
                         filter_lipschitz_bound, pairwise_chordal,
                         projection_embedding, structural_cluster)
from .tape import Tape, Var, grad
from .theory import (ContractionResult, ErrorFloorReport, HeterogeneityReport,
                     KLAudit, contraction_simulate, error_floor, kl_bound_audit,
                     measure_heterogeneity, rounds_to_reach)

__version__ = "0.1.0"

__all__ = [
    "ClassGaussian", "ClientUpload", "ConfigError", "ContractError",
    "ContractionResult", "ErrorFloorReport", "ExperimentConfig", "FedssaError",
    "FederationDataset", "HeterogeneityReport", "InfeasibleError", "KLAudit",
    "LocalGraph", "NumericError",
    "PartitionSpec", "ProtocolError", "RankError", "RoundMetrics",
    "RunConfig", "RunState", "SemanticClusterMap", "ServerBroadcast", "ShapeError",
    "SpectralEnergy", "StructuralClusterMap",
    "SynthSpec", "Tape", "TrainingDivergenceError",
    "UndefinedMetricError", "Var", "accuracy", "auc",
    "build_dataset", "build_global_graph", "build_semantic_map",
    "build_structural_map", "client_round",
    "coeff_perturb_bound", "contraction_simulate",
    "error_floor",
    "evaluate_client", "filter_lipschitz_bound", "gaussian_kl", "grad",
    "init_params",
    "kl_bound_audit", "kmeans", "laplacian_powers", "load_config",
    "load_dataset", "load_graph", "measure_heterogeneity",
    "pairwise_chordal", "parse_config",
    "partition_nonoverlap", "partition_overlap", "projection_embedding",
    "qr_thin", "rounds_to_reach", "run_federation_detailed", "run_round",
    "save_dataset", "save_graph", "server_step", "spawn_key", "spectral_energy",
    "stratified_split", "stream", "structural_cluster", "synth_dataset",
    "two_regime_federation",
]
