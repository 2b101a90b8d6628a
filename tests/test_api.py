import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import rfflms
from rfflms import runner

PUBLIC = [
    "AdaptiveRffLms",
    "CoherenceKlms",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentError",
    "FilterSpec",
    "PlantConfig",
    "RunArtifacts",
    "derive_seed",
    "export_artifacts",
    "gen_nonstationary_stream",
    "gen_stationary_stream",
    "list_presets",
    "load_config",
    "preset",
    "run_experiment",
    "run_experiments",
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
    assert f.lr_freqs.tolist() == f.lr_phases.tolist() == [0.0, 0.0]
    freqs, phases = f.freqs.tobytes(), f.phases.tobytes()
    inputs, targets, _ = rfflms.gen_stationary_stream(cfg.plant, 300, seed=3)
    f.run(np.stack([inputs] * 2), np.stack([targets] * 2))
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


def test_a_serial_run_loads_no_pool_code():
    # the pool stack is imported only by a call that builds a pool, so a
    # serial process pays for none of it
    src = str(Path(rfflms.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import dataclasses, os, sys
        import rfflms
        def pool_modules():
            return sorted(m for m in sys.modules
                          if m.split('.')[0] in ('concurrent', 'multiprocessing'))
        print(pool_modules())
        cfg = dataclasses.replace(rfflms.preset('stationary-paper'), horizon=100,
                                  steady_window=10, runs=2)
        rfflms.run_experiment(cfg)
        print(pool_modules())
        os.cpu_count = lambda: 2  # a pool even on one core
        list(rfflms.run_experiments([cfg], workers=2))
        print('concurrent.futures.process' in pool_modules())
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["[]", "[]", "True"]
