import concurrent.futures
import csv
import dataclasses
import filecmp
import json
import os
import warnings
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfflms.cli import _override_filters, _summary_lines, main
from rfflms.config import (
    MAX_FEATURES,
    MAX_HORIZON,
    MAX_RUNS,
    PLANT_FIELDS,
    ConfigError,
    ExperimentConfig,
    FilterSpec,
    PlantConfig,
    config_from_dict,
    config_to_dict,
    preset,
)
from oracles import LearningCurve, aggregate_runs, klms_reference
from rfflms.filters import AdaptiveRffLms
import rfflms.runner as runner
from rfflms.runner import (
    ExperimentError,
    _run_batch,
    export_artifacts,
    make_stream,
    run_experiment,
    run_experiments,
)
from rfflms.seeding import derive_seed

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
        assert np.array_equal(a.emse[lab], b.emse[lab])
        assert np.array_equal(a.model_size[lab], b.model_size[lab])
    assert a.summary() == b.summary()


def test_worker_count_does_not_change_results(tmp_path):
    art1 = run_experiment(tiny_config(runs=4), workers=1)
    art2 = run_experiment(tiny_config(runs=4), workers=2)
    export_artifacts(art1, tmp_path / "w1")
    export_artifacts(art2, tmp_path / "w2")
    for name in FILES:
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name, shallow=False), name


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_cap_does_not_change_the_bytes(workers, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    export_artifacts(run_experiment(tiny_config(runs=5)), tmp_path / "uncapped")
    # 2 runs of 200 steps per batch: 3 batches serially, 4 on two workers
    monkeypatch.setattr(runner, "MAX_HORIZON", 2 * 200)
    [plan] = runner._plan_batches([tiny_config(runs=5)], workers)[1]
    assert [len(runs) for runs in plan] == {1: [1, 2, 2], 2: [1, 1, 1, 2]}[workers]
    batches = []
    run_batch = runner._run_batch
    monkeypatch.setattr(runner, "_run_batch",
                        lambda cfg, runs: batches.append(runs) or run_batch(cfg, runs))
    export_artifacts(run_experiment(tiny_config(runs=5), workers=workers), tmp_path / "capped")
    if workers == 1:  # a pool's workers batch in their own processes
        assert batches == [range(0, 1), range(1, 3), range(3, 5)]
    for name in FILES:
        assert filecmp.cmp(tmp_path / "uncapped" / name, tmp_path / "capped" / name,
                           shallow=False), name


@pytest.mark.parametrize("workers", [0, -4])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_experiment(tiny_config(), workers=workers)


@pytest.mark.parametrize("cpus", [1, None])
def test_workers_are_capped_at_the_cpu_count(cpus, tmp_path, monkeypatch):
    # one CPU (or an unknown count) runs every batch in this process
    export_artifacts(run_experiment(tiny_config(runs=5), workers=1), tmp_path / "serial")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    export_artifacts(run_experiment(tiny_config(runs=5), workers=64), tmp_path / "capped")
    for name in FILES:
        assert filecmp.cmp(tmp_path / "serial" / name, tmp_path / "capped" / name,
                           shallow=False), name
    # so does a call over several configs, config by config
    cfgs = [tiny_config(runs=2, seed=seed) for seed in (1, 2, 3)]
    for i, art in enumerate(run_experiments(cfgs, workers=64)):
        export_artifacts(art, tmp_path / f"capped-{i}")
    for i, cfg in enumerate(cfgs):
        export_artifacts(run_experiment(cfg), tmp_path / f"serial-{i}")
        for name in FILES:
            assert filecmp.cmp(tmp_path / f"serial-{i}" / name, tmp_path / f"capped-{i}" / name,
                               shallow=False), (i, name)


def test_batch_plan(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def sizes(runs, workers, horizon=200, n_features=8):
        specs = tuple(dataclasses.replace(f, n_features=n_features) if f.n_features else f
                      for f in tiny_config().filters)
        cfgs = [tiny_config(runs=n, horizon=horizon, filters=specs) for n in runs]
        n_workers, plans = runner._plan_batches(cfgs, workers)
        for n_runs, batches in zip(runs, plans):  # contiguous, in run-index order
            assert [r for runs in batches for r in runs] == list(range(n_runs))
        return n_workers, [[len(runs) for runs in batches] for batches in plans]

    # one config: a multiple of the worker count
    assert sizes([200], 2) == (2, [[100, 100]])
    assert sizes([65], 1) == (1, [[65]])
    assert sizes([65], 2) == (2, [[32, 33]])
    assert sizes([5], 64) == (5, [[1] * 5])  # workers capped at the run count
    assert sizes([200], 64) == (8, [[25] * 8])  # and at the CPU count
    # a sweep of small configs: whole configs are the unit of parallel work
    assert sizes([2] * 6, 2) == (2, [[2]] * 6)
    # share = ceil(6 / 2) batches at least, capped at a config's run count
    assert sizes([1, 5], 6) == (6, [[1], [1, 2, 2]])
    assert sizes([], 2) == (0, [])
    # MAX_HORIZON run-steps per batch at most, and one run at least
    assert sizes([32], 1, MAX_HORIZON) == (1, [[1] * 32])
    assert sizes([32], 2, MAX_HORIZON // 4) == (2, [[4] * 8])
    assert sizes([65], 1, MAX_HORIZON // 20) == (1, [[16, 16, 16, 17]])
    # MAX_FEATURES run-features per batch at most, and one run at least
    assert sizes([32], 1, n_features=MAX_FEATURES) == (1, [[1] * 32])
    assert sizes([32], 2, n_features=MAX_FEATURES // 4) == (2, [[4] * 8])
    assert sizes([200], 2, 20000) == (2, [[100, 100]])  # the presets' longest horizon
    assert list(run_experiments([], workers=2)) == []


@settings(max_examples=200, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 4096), st.integers(1, MAX_HORIZON),
                                 st.integers(1, MAX_FEATURES)), min_size=1, max_size=4),
       workers=st.integers(1, 16))
def test_batch_plan_rule(shapes, workers):
    # each config: (runs, horizon, the largest n_features, held by rff)
    cfgs = [tiny_config(runs=runs, horizon=horizon, steady_window=1, filters=(
        FilterSpec(kind="coherence-klms", lr_weights=0.2, bandwidth=0.95,
                   coherence_threshold=0.7),
        FilterSpec(kind="rff", lr_weights=0.01, n_features=d, bandwidth=0.95),
        FilterSpec(kind="adaptive-rff", lr_weights=0.005, lr_freqs=1.0, lr_phases=1.0,
                   n_features=-(-d // 2), bandwidth=0.95),
    )) for runs, horizon, d in shapes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 8)
        n_workers, plans = runner._plan_batches(cfgs, workers)
    assert n_workers == min(workers, sum(runs for runs, _, _ in shapes), 8)
    share = -(-n_workers // len(cfgs))
    for (n_runs, horizon, d), batches in zip(shapes, plans, strict=True):

        def fits(size):  # a batch of this many runs holds what one run may hold
            return size == 1 or (size * horizon <= MAX_HORIZON and size * d <= MAX_FEATURES)

        # contiguous, in run-index order, split evenly
        assert [r for runs in batches for r in runs] == list(range(n_runs))
        assert max(map(len, batches)) - min(map(len, batches)) <= 1
        assert all(fits(len(runs)) for runs in batches)
        # the smallest multiple of share that fits, capped at the run count
        n = len(batches)
        assert n % share == 0 or n == n_runs
        below = (n - 1) // share * share  # the largest multiple of share below n
        assert below == 0 or not fits(-(-n_runs // below))


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    """The real pool, recording every instance and the futures it made."""

    built = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built.append(self)
        self.futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.futures.append(future)
        return future


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "built", [])
    return CountingPool.built


def test_a_call_over_several_configs_builds_one_pool(counting_pool):
    cfgs = [tiny_config(runs=2, seed=seed) for seed in (1, 2, 3)]
    arts = list(run_experiments(cfgs, workers=2))
    assert [art.config for art in arts] == cfgs
    [pool] = counting_pool
    assert pool._max_workers == 2
    assert len(pool.futures) == 3  # one batch per config


def test_a_failed_call_cancels_the_later_configs_batches(counting_pool):
    bad = tiny_config(filters=(
        FilterSpec(kind="rff", lr_weights=1e8, n_features=8, bandwidth=0.95),
    ))
    later = [tiny_config(horizon=2000, steady_window=100, seed=seed) for seed in range(8)]
    arts = run_experiments([bad, *later], workers=2)
    with pytest.raises(ExperimentError):
        next(arts)
    [pool] = counting_pool
    # the failing batch, the first and shortest, ends the call before the
    # batches no worker has taken start
    assert any(future.cancelled() for future in pool.futures)
    assert all(future.done() for future in pool.futures)


def test_closing_the_call_early_cancels_the_later_configs_batches(counting_pool):
    first = tiny_config(horizon=100, steady_window=50)
    later = [tiny_config(horizon=2000, steady_window=100, seed=seed) for seed in range(8)]
    with closing(run_experiments([first, *later], workers=2)) as arts:
        assert next(arts).config == first
    [pool] = counting_pool
    assert any(future.cancelled() for future in pool.futures)
    assert all(future.done() for future in pool.futures)


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
    assert np.array_equal(art.emse["rff"], art.emse["frozen"])


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


def test_any_plant_that_reads_a_change_step_gets_a_change_snapshot(monkeypatch):
    monkeypatch.setitem(PLANT_FIELDS, "stationary", ("snr_db", "rho", "change_step"))
    cfg = tiny_config(plant=PlantConfig(kind="stationary", snr_db=15.0, change_step=100))
    art = run_experiment(cfg)
    assert set(art.snapshots["adaptive-rff"]) == {"initial", "change", "final"}


def test_a_call_whose_runs_sum_past_the_ceiling_plans_no_batch(monkeypatch):
    def no_plan(*args, **kwargs):
        raise AssertionError("batches were planned")

    monkeypatch.setattr(runner, "_plan_batches", no_plan)
    cfg = tiny_config(runs=MAX_RUNS // 2 + 1)
    cfg.validate()
    with pytest.raises(ConfigError, match="runs"):
        next(run_experiments([cfg, dataclasses.replace(cfg, name="other")]))


def test_model_size_curves():
    art = run_experiment(tiny_config())
    assert np.all(art.model_size["rff"] == 8)
    sizes = art.model_size["coherence-klms"]
    assert np.all(np.diff(sizes) >= 0)
    assert art.summary()["coherence-klms"]["final_model_size"] == sizes[-1]


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
    assert art.summary()["ok"]["runs_used"] == 3
    assert np.all(np.isfinite(art.emse["ok"]))


def predict_constant(monkeypatch, run_index: int, value: float) -> None:
    """Make run ``run_index`` of every filter predict ``value`` at every step,
    from a state that its filter never flags: each spec's row for that run
    in its engine."""
    build = runner._build_engine

    def build_constant(specs, input_dim, bank_seeds):
        filt = build(specs, input_dim, bank_seeds)
        run = filt.run

        def run_constant(inputs, targets):
            preds = run(inputs, targets)
            assert not filt.diverged_at.any()
            preds[run_index::filt.n_streams] = value
            return preds

        filt.run = run_constant
        return filt

    monkeypatch.setattr(runner, "_build_engine", build_constant)


RFF_ONLY = (FilterSpec(kind="rff", lr_weights=0.01, n_features=8, bandwidth=0.95),)


def test_overflowing_squared_error_is_a_diverged_run(monkeypatch):
    # run 1 predicts a finite 1e200 from a finite state, so only its squared
    # error overflows
    cfg = tiny_config(filters=RFF_ONLY, max_divergence_fraction=1.0)
    [(_, emse, _, _, _)] = _run_batch(cfg, range(cfg.runs))
    predict_constant(monkeypatch, 1, 1e200)
    art = run_experiment(cfg)
    assert art.diverged["rff"] == [1]
    assert art.summary()["rff"]["runs_used"] == 2
    assert np.array_equal(art.emse["rff"], (emse[0] + emse[2]) / 2)


def test_a_finite_run_worse_than_predicting_zero_is_a_diverged_run(monkeypatch):
    # run 1 predicts a constant 100: its EMSE stays finite, far above the
    # clean power of the plant, which is what predicting 0 scores
    cfg = tiny_config(filters=RFF_ONLY, max_divergence_fraction=1.0)
    [(_, emse, _, usable, _)] = _run_batch(cfg, range(cfg.runs))
    assert usable.all()
    predict_constant(monkeypatch, 1, 100.0)
    [(_, runaway, _, usable, _)] = _run_batch(cfg, range(cfg.runs))
    assert np.isfinite(runaway).all() and usable.tolist() == [True, False, True]
    art = run_experiment(cfg)
    assert art.diverged["rff"] == [1]
    assert art.summary()["rff"]["runs_used"] == 2
    assert np.array_equal(art.emse["rff"], (emse[0] + emse[2]) / 2)
    # 1 bad run of 3 is over the default fraction of 0.01
    with pytest.raises(ExperimentError, match="1 of 3 runs diverged"):
        run_experiment(dataclasses.replace(cfg, max_divergence_fraction=0.01))


def test_coherence_klms_sizes_average_only_the_usable_runs(monkeypatch):
    # run 1 predicts a constant 100 and is dropped, though its dictionary
    # grows as the others' do: the mean size curve is the reference's over
    # runs 0, 2 and 3, one batch of four runs
    klms = tiny_config().filters[0]
    cfg = tiny_config(filters=(klms,), runs=4, max_divergence_fraction=1.0)
    curves = []
    for r in range(cfg.runs):
        inputs, targets, _ = make_stream(cfg, derive_seed(cfg.seed, r, "stream"))
        curves.append(klms_reference(klms.bandwidth, klms.coherence_threshold,
                                     klms.lr_weights, inputs, targets)[1])
    predict_constant(monkeypatch, 1, 100.0)
    art = run_experiment(cfg)
    assert art.diverged["coherence-klms"] == [1]
    usable = np.mean([curves[r] for r in (0, 2, 3)], axis=0)
    assert np.array_equal(art.model_size["coherence-klms"], usable)
    assert not np.array_equal(usable, np.mean(curves, axis=0))


def test_a_bank_that_breaks_on_a_calls_last_update_has_no_snapshot(monkeypatch, tmp_path):
    # run 0's bank turns NaN on the last update before the regime change, so
    # its filter flags it only at the second call's first prediction
    # rff and adaptive-rff share one engine, whose rows hold each filter's
    # runs over the same streams: run 0 of each is every n-th row
    cfg = tiny_nonstationary(max_divergence_fraction=1.0)
    run = AdaptiveRffLms.run

    def run_breaking(filt, inputs, targets):
        first = filt.n_steps == 0
        preds = run(filt, inputs, targets)
        if first:
            run_0 = slice(None, None, len(inputs))
            filt.freqs[run_0] = np.nan
            assert not filt.diverged_at[run_0].any()
        return preds

    monkeypatch.setattr(AdaptiveRffLms, "run", run_breaking)
    art = run_experiment(cfg)
    assert art.diverged == {"coherence-klms": [], "rff": [0], "adaptive-rff": [0]}
    export_artifacts(art, tmp_path)
    with (tmp_path / "omega_snapshots.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["stage"] for row in rows} == {"initial"}
    assert not any("nan" in cell.lower() for row in rows for cell in row.values())


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


@pytest.mark.parametrize("rff_label", ['rff, "fixed"\nD=8', "rff\nD=8", 'rff, 5%d "fixed"\nD=8'],
                         ids=["comma-quote-newline", "newline-only", "percent"])
def test_labels_that_need_csv_quoting_read_back_exactly(tmp_path, rff_label):
    klms_label = "klms, 0.7"
    cfg = tiny_nonstationary(filters=(
        FilterSpec(kind="rff", label=rff_label, lr_weights=0.01, n_features=8, bandwidth=0.95),
        FilterSpec(kind="coherence-klms", label=klms_label, lr_weights=0.2,
                   bandwidth=0.95, coherence_threshold=0.7),
    ))
    export_artifacts(run_experiment(cfg), tmp_path)

    def rows(name):
        with (tmp_path / name).open(newline="") as fh:
            return list(csv.reader(fh))

    for name in ("emse.csv", "model_size.csv"):
        table = rows(name)
        assert table[0] == ["n", rff_label, klms_label], name
        assert len(table) == 1 + cfg.horizon and {len(row) for row in table} == {3}, name
    assert [row[0] for row in rows("summary.csv")[1:]] == [rff_label, klms_label]
    snapshots = rows("omega_snapshots.csv")[1:]
    # one rff filter x 3 stages x 8 features, the change stage included
    assert len(snapshots) == 3 * 8
    assert {row[0] for row in snapshots} == {rff_label}
    assert {row[1] for row in snapshots} == {"initial", "change", "final"}
    assert {len(row) for row in snapshots} == {5}


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
    assert set(art.emse) == {"ok"}
    assert art.summary()["explodes"] == {"runs_used": 0}
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
    # the CLI table prints summary.csv's value
    ok_line = [line for line in _summary_lines(art) if line.startswith("ok ")]
    assert len(ok_line) == 1
    assert ok_line[0].split()[1] == f"{float(rows['ok']['steady_state_emse_db']):.3f}"


@pytest.mark.parametrize("make_cfg", [tiny_config, tiny_nonstationary])
def test_runner_sum_matches_aggregate_oracle(make_cfg):
    cfg = make_cfg(runs=5)
    art = run_experiment(cfg)
    # each run alone in its batch, against the five in one batch
    per_run = [{lab: (emse[0], sizes)
                for lab, emse, sizes, _, _ in _run_batch(cfg, range(r, r + 1))}
               for r in range(cfg.runs)]
    assert set(art.emse) == {f.column for f in cfg.filters}
    for lab in art.emse:
        emse = aggregate_runs([LearningCurve(run[lab][0]) for run in per_run])
        sizes = aggregate_runs([LearningCurve(run[lab][1]) for run in per_run])
        assert art.summary()[lab]["runs_used"] == 5
        assert np.array_equal(art.emse[lab], emse)
        assert np.array_equal(art.model_size[lab], sizes)


def test_sweep_bytes_do_not_depend_on_the_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())))
    out = tmp_path / "out"  # one path: the manifests and stdout echo it
    stdout = {}
    for workers in (1, 2):
        assert main(["run", "--config", str(path), "--out", str(out), "--workers",
                     str(workers), "--sweep", "n_features=8:24:8"]) == 0
        stdout[workers] = capsys.readouterr().out
        out.rename(tmp_path / f"w{workers}")
    assert stdout[1] == stdout[2]
    points = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert points == sorted(p.name for p in (tmp_path / "w2").iterdir())
    assert len(points) == 3
    for point in points:
        manifest = json.loads((tmp_path / "w1" / point / "manifest.json").read_text())
        # each point alone, as run_experiment runs it
        export_artifacts(run_experiment(config_from_dict(manifest["config"])),
                         tmp_path / "alone" / point)
        for name in FILES:
            for tree in ("w2", "alone"):
                assert filecmp.cmp(tmp_path / "w1" / point / name,
                                   tmp_path / tree / point / name, shallow=False), (tree, name)


def assert_same_files(a, b) -> None:
    for name in FILES:
        assert filecmp.cmp(a / name, b / name, shallow=False), (a, b, name)


def record_builds(monkeypatch) -> list:
    """Record the specs of every engine that ``_build_engine`` builds, one
    list an engine."""
    built = []
    build = runner._build_engine

    def recording_build(specs, input_dim, bank_seeds):
        built.append(list(specs))
        return build(specs, input_dim, bank_seeds)

    monkeypatch.setattr(runner, "_build_engine", recording_build)
    return built


# two engines: D 48 stacks two adaptive-rff at different rates ahead of two
# rff, one of which diverges on every run, and D 32 holds one rff
FUSED_FILTERS = (
    FilterSpec(kind="rff", lr_weights=0.01, n_features=48, bandwidth=0.95),
    FilterSpec(kind="adaptive-rff", lr_weights=0.005, lr_freqs=0.05, lr_phases=0.05,
               n_features=48, bandwidth=0.95),
    FilterSpec(kind="rff", label="rff-32", lr_weights=0.01, n_features=32, bandwidth=0.95),
    FilterSpec(kind="rff", label="explodes", lr_weights=1.0, n_features=48, bandwidth=0.95),
    FilterSpec(kind="adaptive-rff", label="adaptive-rff-slow", lr_weights=0.003,
               lr_freqs=0.2, lr_phases=0.1, n_features=48, bandwidth=0.95),
)


def batch_bytes(cfg, runs) -> dict:
    """Each filter's ``_run_batch`` output over ``runs``, as bytes."""
    return {lab: (emse.tobytes(), sizes.tobytes(), usable.tobytes(),
                  snaps and {stage: freqs.tobytes() for stage, freqs in snaps.items()})
            for lab, emse, sizes, usable, snaps in _run_batch(cfg, runs)}


def artifact_bytes(art, lab) -> tuple:
    return (art.emse[lab].tobytes(), art.model_size[lab].tobytes(), art.diverged[lab],
            {stage: freqs.tobytes() for stage, freqs in art.snapshots[lab].items()})


@pytest.mark.parametrize("make_cfg", [tiny_config, tiny_nonstationary])
@pytest.mark.parametrize("workers", [1, 2])
def test_stacked_specs_get_the_bytes_each_gets_alone(make_cfg, workers, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    cfg = make_cfg(name="fused", filters=FUSED_FILTERS, runs=4, max_divergence_fraction=1.0)
    assert [[f.column for f in engine] for engine in runner._engines(cfg.filters, 4)] == [
        ["adaptive-rff", "adaptive-rff-slow", "rff", "explodes"], ["rff-32"]]
    # the batches that this worker count runs: the nonstationary one that
    # holds run 0 splits its call at the change step
    [batches] = runner._plan_batches([cfg], workers)[1]
    assert len(batches) == workers
    for runs in batches:
        fused = batch_bytes(cfg, runs)
        for spec in cfg.filters:
            [alone] = batch_bytes(dataclasses.replace(cfg, filters=(spec,)), runs).values()
            assert fused[spec.column] == alone, (runs, spec.column)
    art = run_experiment(cfg, workers=workers)
    assert art.diverged == {f.column: [0, 1, 2, 3] if f.column == "explodes" else []
                            for f in cfg.filters}
    for spec in cfg.filters:
        if spec.column != "explodes":
            alone = run_experiment(dataclasses.replace(cfg, filters=(spec,)), workers=workers)
            assert artifact_bytes(art, spec.column) == artifact_bytes(alone, spec.column)
    export_artifacts(art, tmp_path / "fused")
    export_artifacts(run_experiment(cfg, workers=3 - workers), tmp_path / "other")
    assert_same_files(tmp_path / "fused", tmp_path / "other")


def test_an_engine_holds_at_most_max_features_over_d_rows_or_a_batchs_runs(monkeypatch):
    specs = [FilterSpec(kind="rff", label=f"rff-{i}", lr_weights=0.01, n_features=48,
                        bandwidth=0.95) for i in range(5)]
    monkeypatch.setattr(runner, "MAX_FEATURES", 48 * 6)
    assert [len(engine) for engine in runner._engines(tuple(specs), 2)] == [3, 2]
    assert [len(engine) for engine in runner._engines(tuple(specs), 4)] == [1] * 5
    assert [len(engine) for engine in runner._engines(tuple(specs), 8)] == [1] * 5
    # the capped engines give the bytes of one engine
    cfg = tiny_config(filters=tuple(specs))
    capped = batch_bytes(cfg, range(3))
    monkeypatch.setattr(runner, "MAX_FEATURES", MAX_FEATURES)
    assert batch_bytes(cfg, range(3)) == capped


def test_an_n_features_sweep_builds_coherence_klms_for_its_first_config_only(monkeypatch):
    cfgs = [_override_filters(tiny_config(), "n_features", d) for d in (8, 16, 24)]
    # 2 runs of 200 steps per batch: 2 batches of each 3-run config
    monkeypatch.setattr(runner, "MAX_HORIZON", 2 * 200)
    assert runner._plan_batches(cfgs, 1)[1] == [[range(0, 1), range(1, 3)]] * 3
    built = record_builds(monkeypatch)
    held = []  # the call's units and their count as each config's reduction starts
    aggregate = runner._aggregate

    def noting_aggregate(cfg, batches, results, units):
        held.append((units, len(units)))
        return aggregate(cfg, batches, results, units)

    monkeypatch.setattr(runner, "_aggregate", noting_aggregate)
    assert len(list(run_experiments(cfgs))) == 3
    # only coherence-klms's reduction outlives its first config, up to the last
    assert [n for _, n in held] == [0, 1, 1] and held[0][0] == {}
    assert [[(f.kind, f.n_features) for f in engine] for engine in built] == [
        [("coherence-klms", 0)], [("adaptive-rff", 8), ("rff", 8)],
        [("coherence-klms", 0)], [("adaptive-rff", 8), ("rff", 8)],
        *[[(kind, d) for kind in ("adaptive-rff", "rff")] for d in (16, 24) for _ in range(2)],
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_config_of_a_call_writes_the_bytes_it_writes_alone(workers, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    base = tiny_config()
    cfgs = [
        *(_override_filters(base, "n_features", d) for d in (8, 16)),
        *(_override_filters(base, "coherence_threshold", t) for t in (0.6, 0.8)),
        dataclasses.replace(base, name="twin"),  # shares every unit with the first
        dataclasses.replace(base, seed=78),
    ]
    for i, art in enumerate(run_experiments(cfgs, workers=workers)):
        export_artifacts(art, tmp_path / "call" / str(i))
    for i, cfg in enumerate(cfgs):
        export_artifacts(run_experiment(cfg), tmp_path / "alone" / str(i))
        assert_same_files(tmp_path / "call" / str(i), tmp_path / "alone" / str(i))


@pytest.mark.parametrize("change", [
    dict(seed=78), dict(steady_window=40), dict(runs=4), dict(horizon=201),
    dict(plant=PlantConfig(kind="stationary", snr_db=20.0, rho=0.5)),
    dict(plant=PlantConfig(kind="stationary", snr_db=15.0, rho=0.4)),
])
def test_configs_that_differ_outside_their_filters_share_no_unit(change, monkeypatch):
    built = record_builds(monkeypatch)
    cfg = tiny_config()
    assert len(list(run_experiments([cfg, tiny_config(**change)]))) == 2
    assert built == 2 * runner._engines(cfg.filters, cfg.runs)  # one batch each


# coherence-klms at a rate where runs 3 and 6 of 12 diverge, one in each
# batch of a two-worker call; rff is usable on every run
PARTLY_DIVERGING = tiny_config(
    name="partly-diverging",
    filters=(
        FilterSpec(kind="coherence-klms", lr_weights=0.65, bandwidth=0.95,
                   coherence_threshold=0.7),
        FilterSpec(kind="rff", lr_weights=0.01, n_features=8, bandwidth=0.95),
    ),
    horizon=2000, runs=12, seed=12345, steady_window=500, max_divergence_fraction=1.0,
)


def test_a_shared_partly_diverged_unit_meets_each_configs_fraction(monkeypatch):
    built = record_builds(monkeypatch)
    lenient = PARTLY_DIVERGING
    # 2 of 12 runs are bad, over a fraction of 0.1
    strict = dataclasses.replace(lenient, max_divergence_fraction=0.1)
    arts = run_experiments([lenient, strict])
    assert next(arts).diverged == {"coherence-klms": [3, 6], "rff": []}
    n_built = len(built)
    with pytest.raises(ExperimentError, match="2 of 12 runs diverged"):
        next(arts)
    assert len(built) == n_built  # the strict config ran no batch


def test_configs_sharing_a_unit_do_not_alias_their_artifacts():
    cfg = PARTLY_DIVERGING
    a, b = run_experiments([cfg, dataclasses.replace(cfg, name="twin")])
    alone = run_experiment(cfg)
    a.diverged["coherence-klms"].append(11)
    a.emse["rff"][:] = 0
    a.model_size["rff"][:] = 0
    a.snapshots["rff"]["initial"][:] = 0
    assert b.diverged == alone.diverged == {"coherence-klms": [3, 6], "rff": []}
    assert np.array_equal(b.emse["rff"], alone.emse["rff"])
    assert np.array_equal(b.model_size["rff"], alone.model_size["rff"])
    assert np.array_equal(b.snapshots["rff"]["initial"], alone.snapshots["rff"]["initial"])


def test_a_partly_diverged_filter_keeps_its_bytes_across_batchings(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    cfg = PARTLY_DIVERGING
    art = run_experiment(cfg)
    assert art.diverged == {"coherence-klms": [3, 6], "rff": []}
    export_artifacts(art, tmp_path / "serial")
    # batches [0, 6) and [6, 12): usable and diverged runs in each
    assert runner._plan_batches([cfg], 2)[1] == [[range(0, 6), range(6, 12)]]
    export_artifacts(run_experiment(cfg, workers=2), tmp_path / "workers-2")
    assert_same_files(tmp_path / "serial", tmp_path / "workers-2")
    # a unit shared by a sweep: cfg's coherence-klms comes from the first point
    built = record_builds(monkeypatch)
    *_, shared = run_experiments([_override_filters(cfg, "n_features", 16), cfg])
    assert [[f.kind for f in engine] for engine in built] == [
        ["coherence-klms"], ["rff"], ["rff"]]
    export_artifacts(shared, tmp_path / "shared")
    assert_same_files(tmp_path / "serial", tmp_path / "shared")
    # 2 runs of 2000 steps per batch: six batches of two runs
    monkeypatch.setattr(runner, "MAX_HORIZON", 2 * 2000)
    assert runner._plan_batches([cfg], 1)[1] == [[range(r, r + 2) for r in range(0, 12, 2)]]
    export_artifacts(run_experiment(cfg), tmp_path / "capped")
    assert_same_files(tmp_path / "serial", tmp_path / "capped")
