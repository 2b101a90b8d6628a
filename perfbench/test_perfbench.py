"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

Each test runs shrunken copies of the workloads (a few hundred steps), so
the whole file takes well under a minute.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

import rep
import run
import tracing

ROOT = run.HERE.parent
sys.path.insert(0, str(ROOT / "src"))
import rfflms  # noqa: E402  (the checkout's copy, put on the path above)

BENCH, WORKLOADS = run.load_benchmark()
NAMES = list(WORKLOADS["workloads"])


def tiny(name: str) -> dict:
    """The workload at a few hundred steps (nonstationary needs its change
    step, 5000, inside the horizon)."""
    wl = json.loads(json.dumps(WORKLOADS["workloads"][name]))
    if "preset" in wl:
        wl.update(runs=1, horizon=5100 if name == "nonstationary" else 300, steady_window=100)
    else:
        wl["config"].update(runs=2, horizon=200, steady_window=100)
        wl.update(sweep="n_features=16:48:32", experiments=2)
    return wl


def measure_tiny(name: str, wl: dict, trace: bool = False) -> dict:
    return run.measure(ROOT, f"test-{name}", wl, seed=7, seconds=0, trace=trace)


def test_recorded_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == NAMES
    for name, wl in WORKLOADS["workloads"].items():
        horizon = wl["horizon"] if "preset" in wl else wl["config"]["horizon"]
        assert wl["filter_steps"] == run.operations(wl) * horizon, name
    mapped = [m for layer in WORKLOADS["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for layer in WORKLOADS["layers"].values():
        assert set(layer["moves"]) <= e2e
        assert set(layer["most_on"] + layer["barely_on"]) <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_runs_and_passes_the_output_check(name):
    result = measure_tiny(name, tiny(name))
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.operations(tiny(name))
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        value = metrics[m["name"]]["value"]
        assert math.isfinite(value), m["name"]
        # a tiny run's steady state may lie above 0 dB; every other metric is positive
        assert value > 0 or m["name"].startswith("ss_att_db."), m["name"]


def test_traced_run_emits_every_per_layer_metric():
    result = measure_tiny("sweep", tiny("sweep"), trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    for name in ("filters.adaptive-rff.steps", "cli.experiments", "features.banks",
                 "kernels.admit_us", "systems.import_s", "runner.export_bytes"):
        assert metrics[name]["value"] > 0, name
    assert metrics["filters.rff.steps"]["value"] == 2 * 2 * 200  # experiments x runs x horizon


def test_sweep_writes_identical_csvs_with_one_and_two_workers():
    wl = tiny("sweep")
    digests = []
    for workers in (1, 2):
        out = Path(".perfbench_out") / "test-workers"
        config = out.parent / "test-workers.json"
        (ROOT / config).parent.mkdir(parents=True, exist_ok=True)
        (ROOT / config).write_text(json.dumps({**wl["config"], "seed": 3}))
        result = run.run_rep(ROOT, {**wl, "workers": workers}, 3, out, config, trace=False)
        assert result["correct"], result.get("error")
        digests.append({k: v for k, v in result["digests"].items() if k.endswith(".csv")})
    assert len(digests[0]) == 2 * 4
    assert digests[0] == digests[1]


def test_an_experiment_error_counts_its_operations_as_failed():
    wl = tiny("sweep")
    for spec in wl["config"]["filters"]:
        if spec["kind"] == "rff":
            spec["lr_weights"] = 1e6  # diverges on every run
    result = measure_tiny("diverging", wl)
    assert result["correct"]
    assert result["failed"] == result["attempted"] == run.operations(wl)


def test_traced_spans_nest_and_self_times_are_non_negative(monkeypatch, tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer, rfflms, monkeypatch.setattr)
    cfg = dataclasses.replace(rfflms.preset("stationary-paper"), runs=2, horizon=300,
                              steady_window=100)
    rfflms.export_artifacts(rfflms.run_experiment(cfg), tmp_path)

    spans = tracer.spans
    assert {s[0] for s in spans} >= {"runner.run_experiment", "runner.export_artifacts",
                                     "systems.stream", "features.sample_bank"}
    for _name, start, end, parent in spans:
        assert start <= end
        if parent != tracing.ROOT:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert all(own >= 0 for own in tracer.self_seconds())
    for kind in tracing.KINDS:
        count, seconds, _ = tracer.totals(f"filters.{kind}.step")
        assert count == 2 * 300
        assert 0 <= tracer.nested_seconds(f"filters.{kind}.step") <= seconds


def test_self_time_subtracts_child_spans_and_direct_per_step_calls():
    tracer = tracing.Tracer()
    inner = tracer.per_step("inner", lambda: None)
    step = tracer.per_step("step", lambda: inner())
    child = tracer.span("child", lambda: None)
    parent = tracer.span("parent", lambda: (child(), step(), step()))
    parent()
    (p_name, p_start, p_end, _), (c_name, c_start, c_end, c_parent) = tracer.spans
    assert (p_name, c_name, c_parent) == ("parent", "child", 0)
    step_count, step_s, _ = tracer.totals("step")
    assert step_count == 2 and tracer.totals("inner")[0] == 2
    assert 0 <= tracer.nested_seconds("step") == tracer.totals("inner")[1] <= step_s
    own = tracer.self_seconds()
    assert own[0] == pytest.approx((p_end - p_start) - (c_end - c_start) - step_s, abs=1e-12)
    assert own[0] >= 0 and own[1] >= 0


def test_import_seconds_reads_cumulative_column():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       120 |       1500000 |   rfflms.systems\n"
           "import time:        30 |       2000000 | rfflms\n")
    found = tracing.import_seconds(log)
    assert found["systems.import_s"] == 1.5 and found["rfflms.import_s"] == 2.0
    assert found["cli.import_s"] == 0.0


def test_check_rejects_a_summary_that_disagrees_with_the_curves():
    wl = tiny("stationary")
    result = run.run_rep(ROOT, wl, 5, Path(".perfbench_out") / "test-check", None, trace=False)
    assert result["correct"]
    out = ROOT / ".perfbench_out" / "test-check"
    cfg = rep.build_config(rfflms, wl, 5, None)
    assert rep.read_back(wl, cfg, out)["correct"]
    with (out / "summary.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["steady_state_emse_db"] = str(float(rows[0]["steady_state_emse_db"]) + 0.01)
    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    checked = rep.read_back(wl, cfg, out)
    assert not checked["correct"] and checked["failed"] == checked["attempted"]
