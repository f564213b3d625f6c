"""Online dual control of unknown nonlinear systems with GP regression."""

from .config import ConfigError, SCENARIOS, load_config, resolve_config, scenario_defaults
from .control import (
    ActionSet,
    AdditiveControlModel,
    BlackBoxModel,
    CartSideInfoModel,
    EpisodeAborted,
    StepRecord,
    Weights,
    run_benchmark_episode,
    run_episode,
    select_action,
)
from .gp import (
    DataSet,
    FactorizationError,
    GpModel,
    KernelConfig,
)
from .harness import EpisodeResult, compute_slice, run_scenario, run_sweep, training_set_hash
from .info import (
    SelectionResult,
    sample_candidates,
    select_exhaustive,
    select_max_variance,
)
from .plants import CartParams, CartPlant, LogisticPlant, ObservationChannel, PlantDiverged

__all__ = [
    "ActionSet",
    "AdditiveControlModel",
    "BlackBoxModel",
    "CartParams",
    "CartPlant",
    "CartSideInfoModel",
    "ConfigError",
    "DataSet",
    "EpisodeAborted",
    "EpisodeResult",
    "FactorizationError",
    "GpModel",
    "KernelConfig",
    "LogisticPlant",
    "ObservationChannel",
    "PlantDiverged",
    "SCENARIOS",
    "SelectionResult",
    "StepRecord",
    "Weights",
    "compute_slice",
    "load_config",
    "resolve_config",
    "run_benchmark_episode",
    "run_episode",
    "run_scenario",
    "run_sweep",
    "sample_candidates",
    "scenario_defaults",
    "select_action",
    "select_exhaustive",
    "select_max_variance",
    "training_set_hash",
]

__version__ = "0.1.0"
