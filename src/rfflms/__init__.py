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
from .features import (
    FeatureBank,
    RffSpec,
    feature_map,
    sample_feature_bank,
)
from .filters import (
    AdaptiveRffLms,
    CoherenceKlms,
    DivergenceError,
    RffLms,
    StepOutcome,
)
from .kernels import Dictionary, GaussianKernel, coherence_admit, kernelized_input
from .metrics import McAggregate, steady_state_emse, to_db
from .runner import ExperimentError, RunArtifacts, export_artifacts, run_experiment
from .seeding import derive_seed
from .systems import (
    Ar1Spec,
    KernelPlantSpec,
    NoiseSpec,
    PiecewisePlantSpec,
    SampleStream,
    calibrate_noise,
    gen_ar1,
    gen_nonstationary_stream,
    gen_stationary_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRffLms",
    "Ar1Spec",
    "CoherenceKlms",
    "ConfigError",
    "Dictionary",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentError",
    "FeatureBank",
    "FilterSpec",
    "GaussianKernel",
    "KernelPlantSpec",
    "McAggregate",
    "NoiseSpec",
    "PiecewisePlantSpec",
    "PlantConfig",
    "RffLms",
    "RffSpec",
    "RunArtifacts",
    "SampleStream",
    "StepOutcome",
    "calibrate_noise",
    "coherence_admit",
    "derive_seed",
    "export_artifacts",
    "feature_map",
    "gen_ar1",
    "gen_nonstationary_stream",
    "gen_stationary_stream",
    "kernelized_input",
    "list_presets",
    "load_config",
    "preset",
    "run_experiment",
    "sample_feature_bank",
    "steady_state_emse",
    "to_db",
]
