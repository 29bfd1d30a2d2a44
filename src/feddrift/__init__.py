"""Deterministic federated-learning simulation with drift-corrected aggregation."""

from .data import FederatedDataset, PartitionPlan, SyntheticConfig
from .engine import (
    ExperimentConfig,
    FederatedRun,
    MnistConfig,
    RoundRecord,
    RunSummary,
    rounds_to_target,
    run_experiment,
)
from .federation import AlgoConfig, ClientStore, ServerState, weighted_mean
from .models import ModelSpec
from .rng import stream
from .vectors import ParamVector, finite_diff_grad

__version__ = "0.1.0"

__all__ = [
    "AlgoConfig",
    "ClientStore",
    "ExperimentConfig",
    "FederatedDataset",
    "FederatedRun",
    "MnistConfig",
    "ModelSpec",
    "ParamVector",
    "PartitionPlan",
    "RoundRecord",
    "RunSummary",
    "ServerState",
    "SyntheticConfig",
    "finite_diff_grad",
    "rounds_to_target",
    "run_experiment",
    "stream",
    "weighted_mean",
    "__version__",
]
