import rfflms

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert rfflms.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(rfflms, name) is not None, name


def test_rff_filter_is_the_adaptive_core_with_frozen_features():
    assert issubclass(rfflms.RffLms, rfflms.AdaptiveRffLms)
    bank = rfflms.sample_feature_bank(rfflms.RffSpec(1.0, 4, 2, seed=0))
    f = rfflms.RffLms(bank, 0.1)
    assert (f.lr_weights, f.lr_freqs, f.lr_phases) == (0.1, 0.0, 0.0)
