"""What the benchmark in ``perfbench/`` needs of the library.

``perfbench/tracing.py`` wraps library functions at the names where their
callers look them up, and ``perfbench/rep.py`` builds each workload's
config through the public API. A library change that breaks either shows
here, in the tier-1 suite. The benchmark's modules are loaded read-only,
from their files, without adding ``perfbench/`` to ``sys.path``.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

import rfflms
from rfflms import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rep, tracing = load("rep"), load("tracing")
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]


# the runner makes one stream per run and one bank per run and RFF filter
# (the preset has two), through the names that the tracer wraps
@pytest.mark.parametrize("runs", [1, 2])
def test_the_tracer_installs_and_records_an_experiments_spans(tmp_path, monkeypatch, runs):
    tracer = tracing.Tracer()
    flops = tracing.install(tracer, rfflms, monkeypatch.setattr)
    cfg = dataclasses.replace(rfflms.preset("stationary-paper"), runs=runs, horizon=60,
                              steady_window=20)
    rfflms.export_artifacts(rfflms.run_experiment(cfg), tmp_path / "out")
    names = {name for name, *_ in tracer.spans}
    assert {"runner.run_experiment", "runner.export_artifacts", "systems.stream",
            "features.sample_bank"} <= names
    # the read-out takes what the traced repetition recorded
    metrics = tracing.layer_metrics(tracer, flops, {"diverged": {}, "dict_size": 0.0,
                                                    "export_bytes": 0})
    assert metrics["runner.experiment_s"] > 0
    assert (metrics["features.banks"], metrics["systems.streams"]) == (2 * runs, runs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_config_builds_and_validates(name, tmp_path):
    wl = WORKLOADS[name]
    config_path = tmp_path / "config.json"
    if "config" in wl:  # the file the sweep's CLI call reads, as run.py writes it
        config_path.write_text(json.dumps({**wl["config"], "seed": 1}))
    cfg = rep.build_config(rfflms, wl, 1, config_path)
    assert [spec.column for spec in cfg.filters] == wl["filters"]
    points = [cfg]
    if "sweep" in wl:
        field, values = cli._parse_sweep(wl["sweep"])
        points = [cli._override_filters(cfg, field, value) for value in values]
        assert len(points) == wl["experiments"]
    for point in points:
        point.validate()
