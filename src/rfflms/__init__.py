"""Streaming kernel LMS filters on random Fourier features, with a seeded
Monte Carlo benchmark for online nonlinear system identification."""

from .config import (
    ConfigError,
    ExperimentConfig,
    FilterSpec,
    PlantConfig,
    list_presets,
    load_config,
    preset,
)
from .features import FeatureBank, sample_feature_bank
from .filters import (
    AdaptiveRffLms,
    CoherenceKlms,
    DivergenceError,
    StepOutcome,
)
from .metrics import steady_state_emse, to_db
from .runner import ExperimentError, RunArtifacts, export_artifacts, run_experiment
from .seeding import derive_seed
from .systems import SampleStream, gen_nonstationary_stream, gen_stationary_stream

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRffLms",
    "CoherenceKlms",
    "ConfigError",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentError",
    "FeatureBank",
    "FilterSpec",
    "PlantConfig",
    "RunArtifacts",
    "SampleStream",
    "StepOutcome",
    "derive_seed",
    "export_artifacts",
    "gen_nonstationary_stream",
    "gen_stationary_stream",
    "list_presets",
    "load_config",
    "preset",
    "run_experiment",
    "sample_feature_bank",
    "steady_state_emse",
    "to_db",
]
