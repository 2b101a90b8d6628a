import csv
import dataclasses
import filecmp
import json
import warnings

import numpy as np
import pytest

from rfflms.cli import _summary_lines
from rfflms.config import ExperimentConfig, FilterSpec, PlantConfig, preset
from oracles import LearningCurve, aggregate_runs
from rfflms.runner import ExperimentError, _run_single, export_artifacts, run_experiment

FILES = ["emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv", "manifest.json"]


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        name="tiny",
        plant=PlantConfig(kind="stationary", snr_db=15.0, rho=0.5),
        filters=(
            FilterSpec(kind="coherence-klms", lr_weights=0.2,
                       bandwidth=0.95, coherence_threshold=0.7),
            FilterSpec(kind="rff", lr_weights=0.01, n_features=8, bandwidth=0.95),
            FilterSpec(kind="adaptive-rff", lr_weights=0.005, lr_freqs=1.0,
                       lr_phases=1.0, n_features=8, bandwidth=0.95),
        ),
        horizon=200,
        runs=3,
        seed=77,
        steady_window=50,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_nonstationary(**overrides) -> ExperimentConfig:
    cfg = dataclasses.replace(
        preset("nonstationary-paper"),
        name="tiny-nonstat", horizon=400, steady_window=100, runs=2, seed=5,
        plant=PlantConfig(kind="nonstationary", snr_db=25.0, change_step=200),
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def test_artifacts_are_reproducible():
    a = run_experiment(tiny_config())
    b = run_experiment(tiny_config())
    for lab in a.emse:
        assert np.array_equal(a.emse[lab].mean, b.emse[lab].mean)
        assert np.array_equal(a.model_size[lab], b.model_size[lab])
        assert a.steady_state[lab] == b.steady_state[lab]


def test_worker_count_does_not_change_results(tmp_path):
    art1 = run_experiment(tiny_config(runs=4), workers=1)
    art2 = run_experiment(tiny_config(runs=4), workers=2)
    export_artifacts(art1, tmp_path / "w1")
    export_artifacts(art2, tmp_path / "w2")
    for name in FILES:
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name, shallow=False), name


def test_reexport_is_byte_identical(tmp_path):
    art = run_experiment(tiny_config())
    export_artifacts(art, tmp_path / "a")
    export_artifacts(art, tmp_path / "b")
    for name in FILES:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


def test_rff_family_share_their_initial_bank():
    art = run_experiment(tiny_config())
    assert np.array_equal(art.snapshots["rff"]["initial"],
                          art.snapshots["adaptive-rff"]["initial"])


def test_frozen_adaptive_filter_matches_rff_curves():
    cfg = tiny_config(filters=(
        FilterSpec(kind="rff", lr_weights=0.01, n_features=8, bandwidth=0.95),
        FilterSpec(kind="adaptive-rff", label="frozen", lr_weights=0.01,
                   lr_freqs=0.0, lr_phases=0.0, n_features=8, bandwidth=0.95),
    ))
    art = run_experiment(cfg)
    assert np.array_equal(art.emse["rff"].mean, art.emse["frozen"].mean)


def test_snapshot_shapes_and_stages():
    art = run_experiment(tiny_nonstationary())
    assert set(art.snapshots) == {"rff", "adaptive-rff"}
    for lab, snaps in art.snapshots.items():
        assert set(snaps) == {"initial", "change", "final"}
        for stage, freqs in snaps.items():
            assert freqs.shape == (96, 2)
    # frozen features never move
    assert np.array_equal(art.snapshots["rff"]["initial"], art.snapshots["rff"]["final"])


def test_stationary_snapshots_have_no_change_stage():
    art = run_experiment(tiny_config())
    assert set(art.snapshots["adaptive-rff"]) == {"initial", "final"}


def test_model_size_curves():
    art = run_experiment(tiny_config())
    assert np.all(art.model_size["rff"] == 8)
    sizes = art.model_size["coherence-klms"]
    assert np.all(np.diff(sizes) >= 0)
    assert art.final_model_size["coherence-klms"] == sizes[-1]


def test_divergent_runs_abort_when_over_budget():
    cfg = tiny_config(filters=(
        FilterSpec(kind="rff", lr_weights=1e8, n_features=8, bandwidth=0.95),
    ))
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_divergent_runs_are_flagged_and_excluded():
    cfg = tiny_config(
        filters=(
            FilterSpec(kind="rff", label="ok", lr_weights=0.01,
                       n_features=8, bandwidth=0.95),
            FilterSpec(kind="rff", label="explodes", lr_weights=1e8,
                       n_features=8, bandwidth=0.95),
        ),
        max_divergence_fraction=1.0,
    )
    art = run_experiment(cfg)
    assert art.diverged["explodes"] == [0, 1, 2]
    assert art.diverged["ok"] == []
    assert art.emse["ok"].n_runs == 3
    assert np.all(np.isfinite(art.emse["ok"].mean))


def test_all_runs_diverging_is_an_error():
    cfg = tiny_config(
        filters=(FilterSpec(kind="rff", lr_weights=1e8, n_features=8, bandwidth=0.95),),
        max_divergence_fraction=1.0,
    )
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_export_layout(tmp_path):
    art = run_experiment(tiny_nonstationary())
    manifest = export_artifacts(art, tmp_path)
    for name in FILES:
        assert (tmp_path / name).exists()
    assert manifest["seed"] == 5
    assert manifest["config"]["horizon"] == 400
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["runs_used"] == {lab: 2 for lab in art.emse}

    emse_lines = (tmp_path / "emse.csv").read_text().strip().splitlines()
    assert emse_lines[0].split(",")[0] == "n"
    assert len(emse_lines) == 401

    snap_lines = (tmp_path / "omega_snapshots.csv").read_text().strip().splitlines()
    assert snap_lines[0] == "filter,stage,feature,coord0,coord1"
    # 2 rff-family filters x 3 stages x 96 features
    assert len(snap_lines) == 1 + 2 * 3 * 96


def test_fully_diverged_filter_is_exported_without_nan(tmp_path):
    cfg = tiny_config(
        filters=(
            FilterSpec(kind="rff", label="ok", lr_weights=0.01,
                       n_features=8, bandwidth=0.95),
            FilterSpec(kind="rff", label="explodes", lr_weights=1e8,
                       n_features=8, bandwidth=0.95),
        ),
        max_divergence_fraction=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        art = run_experiment(cfg)
        manifest = export_artifacts(art, tmp_path)
    assert set(art.emse) == set(art.steady_state_db) == {"ok"}
    assert "initial" in art.snapshots["explodes"]

    for name in ("emse.csv", "model_size.csv", "summary.csv"):
        text = (tmp_path / name).read_text()
        assert "nan" not in text.lower(), name
    for name in ("emse.csv", "model_size.csv"):
        header = (tmp_path / name).read_text().splitlines()[0]
        assert header == "n,ok", name

    with (tmp_path / "summary.csv").open(newline="") as fh:
        rows = {row["filter"]: row for row in csv.DictReader(fh)}
    assert rows["explodes"]["steady_state_emse"] == ""
    assert rows["explodes"]["steady_state_emse_db"] == ""
    assert rows["explodes"]["final_model_size"] == ""
    assert rows["explodes"]["runs_used"] == "0"
    assert rows["explodes"]["runs_diverged"] == "3"
    assert rows["ok"]["runs_used"] == "3"
    assert manifest["runs_used"] == {"ok": 3, "explodes": 0}
    assert manifest["diverged_runs"]["explodes"] == [0, 1, 2]

    explodes_line = [line for line in _summary_lines(art) if line.startswith("explodes")]
    assert len(explodes_line) == 1 and "diverged" in explodes_line[0]


@pytest.mark.parametrize("make_cfg", [tiny_config, tiny_nonstationary])
def test_runner_sum_matches_aggregate_oracle(make_cfg):
    cfg = make_cfg(runs=5)
    art = run_experiment(cfg)
    per_run = [_run_single(cfg, r) for r in range(cfg.runs)]
    assert set(art.emse) == {f.column for f in cfg.filters}
    for lab in art.emse:
        emse = aggregate_runs([LearningCurve(run[lab]["emse"]) for run in per_run])
        sizes = aggregate_runs([LearningCurve(run[lab]["sizes"]) for run in per_run])
        assert art.emse[lab].n_runs == emse.n_runs == 5
        assert np.array_equal(art.emse[lab].mean, emse.mean)
        assert np.array_equal(art.model_size[lab], sizes.mean)
