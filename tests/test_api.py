import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rfflms
from rfflms import runner

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert rfflms.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(rfflms, name) is not None, name


def test_rff_filter_is_the_adaptive_core_with_frozen_features():
    cfg = rfflms.preset("stationary-paper")
    [spec] = [s for s in cfg.filters if s.kind == "rff"]
    f = runner.build_filter(spec, 2, [0, 1])
    assert type(f) is rfflms.AdaptiveRffLms
    assert (f.lr_freqs, f.lr_phases) == (0, 0)
    freqs, phases = f.freqs.tobytes(), f.phases.tobytes()
    stream = rfflms.gen_stationary_stream(cfg.plant, 300, seed=3)
    f.run(np.stack([stream.inputs] * 2), np.stack([stream.targets] * 2))
    assert f.weights.any() and not f.diverged_at.any()
    assert (f.freqs.tobytes(), f.phases.tobytes()) == (freqs, phases)


def test_import_loads_no_scipy():
    # the runtime depends on numpy alone
    src = str(Path(rfflms.__file__).resolve().parents[1])
    code = ("import sys, rfflms; "
            "print(rfflms.__file__); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    path, loaded = out.stdout.splitlines()
    assert Path(path).resolve() == Path(rfflms.__file__).resolve()
    assert loaded == "[]"
