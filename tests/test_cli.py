import csv
import json
import multiprocessing
import os

import pytest

import rfflms.cli as cli
import rfflms.runner as runner
from rfflms.cli import _parse_sweep, main

FILES = ["emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv", "manifest.json"]


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "stationary-paper" in out
    assert "nonstationary-paper" in out


def test_validate_good_config(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "plant": {"kind": "stationary", "snr_db": 15.0},
        "filters": [{"kind": "rff", "lr_weights": 0.01, "n_features": 4,
                     "bandwidth": 0.95}],
        "horizon": 50,
        "runs": 1,
        "seed": 0,
        "steady_window": 10,
    }))
    assert main(["validate", "--config", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"horizon": 50}))
    assert main(["validate", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_run_requires_exactly_one_source(capsys, tmp_path):
    assert main(["run"]) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["run", "stationary-paper", "--config", str(cfg)]) == 2


def test_run_unknown_preset(capsys):
    assert main(["run", "no-such"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_run_preset_scaled_down(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", "nonstationary-paper", "--runs", "1", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    assert (out / "emse.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["config"]["runs"] == 1
    assert "steady EMSE" in capsys.readouterr().out


def test_run_config_file(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "name": "mini",
        "plant": {"kind": "stationary", "snr_db": 15.0},
        "filters": [{"kind": "rff", "lr_weights": 0.01, "n_features": 4,
                     "bandwidth": 0.95}],
        "horizon": 60,
        "runs": 2,
        "seed": 3,
        "steady_window": 20,
    }))
    out = tmp_path / "res"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"[mini] runs=2 horizon=60 seed=3 -> {out}")
    lines = (out / "emse.csv").read_text().strip().splitlines()
    assert lines[0] == "n,rff"
    assert len(lines) == 61


def test_run_sweep(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "name": "sweep-me",
        "plant": {"kind": "stationary", "snr_db": 15.0},
        "filters": [{"kind": "rff", "lr_weights": 0.01, "n_features": 4,
                     "bandwidth": 0.95}],
        "horizon": 40,
        "runs": 1,
        "seed": 3,
        "steady_window": 10,
    }))
    out = tmp_path / "res"
    code = main(["run", "--config", str(path), "--out", str(out),
                 "--sweep", "bandwidth=0.5:1.5:0.5"])
    assert code == 0
    for v in ("0.5", "1", "1.5"):
        sub = out / f"sweep_bandwidth={v}"
        assert (sub / "summary.csv").exists(), sub
        manifest = json.loads((sub / "manifest.json").read_text())
        assert manifest["config"]["filters"][0]["bandwidth"] == float(v)


def test_a_sweep_point_echoes_its_own_directory_and_reruns_into_it(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 "--sweep", "n_features=4:8:4"]) == 0
    subs = [out / "sweep_n_features=4", out / "sweep_n_features=8"]
    for sub in subs:
        written = {f: (sub / f).read_bytes() for f in FILES}
        config = json.loads(written["manifest.json"])["config"]
        assert config["out_dir"] == str(sub)
        # the echoed config, run with no --out, rewrites the same bytes there
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(config))
        assert main(["run", "--config", str(echo)]) == 0
        assert {f: (sub / f).read_bytes() for f in FILES} == written
    assert sorted(out.iterdir()) == subs


def test_sweep_grid_counts_steps_with_a_relative_tolerance():
    # steps far below 1e-12 keep their own values and stop at STOP
    assert _parse_sweep("lr_weights=1e-13:5e-13:1e-13") == (
        "lr_weights", [1e-13, 2e-13, 3e-13, 4e-13, 5e-13])
    # (2.0 - 0.3) / 0.1 rounds below 17: the count still reaches STOP
    name, values = _parse_sweep("bandwidth=0.3:2.0:0.1")
    assert values == [round(0.3 + 0.1 * k, 12) for k in range(18)]
    assert _parse_sweep("bandwidth=1:1:0.5") == ("bandwidth", [1.0])


def test_sweep_over_n_features_keeps_its_grid_and_directory_names(tmp_path):
    # rff's LMS is unstable from D=416 on (0.01 * D / 2 > 2): its one run does
    # worse than predicting 0 and counts as diverged, while coherence-klms
    # keeps every point usable
    path = rff_config(tmp_path)
    payload = json.loads(path.read_text())
    payload["filters"].append({"kind": "coherence-klms", "lr_weights": 0.2,
                               "bandwidth": 0.95, "coherence_threshold": 0.7})
    path.write_text(json.dumps({**payload, "max_divergence_fraction": 1.0}))
    out = tmp_path / "res"
    code = main(["run", "--config", str(path), "--out", str(out),
                 "--sweep", "n_features=32:512:96"])
    assert code == 0
    grid = (32, 128, 224, 320, 416, 512)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"sweep_n_features={d}" for d in grid)
    for d in grid:
        with (out / f"sweep_n_features={d}" / "summary.csv").open(newline="") as fh:
            rows = {row["filter"]: row for row in csv.DictReader(fh)}
        assert rows["rff"]["runs_diverged"] == ("1" if d >= 416 else "0"), d
        assert rows["coherence-klms"]["runs_diverged"] == "0", d


def test_validate_reports_an_unreadable_config_path(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_sweep_rejects_bad_grammar(capsys):
    assert main(["run", "stationary-paper", "--sweep", "bandwidth=1:2"]) == 2
    assert main(["run", "stationary-paper", "--sweep", "colour=1:2:1"]) == 2
    capsys.readouterr()
    # a step that does not advance, and a grid that runs backward
    for grid in ("1:2:0", "1:2:-0.5", "2:1:0.5"):
        assert main(["run", "stationary-paper", "--sweep", f"bandwidth={grid}"]) == 2
        assert "--sweep needs step > 0 and stop >= start" in capsys.readouterr().err


def rff_config(tmp_path, **filter_fields):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "name": "sweep-me",
        "plant": {"kind": "stationary", "snr_db": 15.0},
        "filters": [{"kind": "rff", "lr_weights": 0.01, "n_features": 4,
                     "bandwidth": 0.95, **filter_fields}],
        "horizon": 40,
        "runs": 1,
        "seed": 3,
        "steady_window": 10,
    }))
    return path


SWEEP = ["--sweep", "n_features=4:8:4"]


# "res" holds a file in place of the sweep's second point directory; with no
# --out, a file named "results" stands where results/<name> would go
@pytest.mark.parametrize("out, sweep", [
    ("taken", []), ("taken/res", []), ("taken", SWEEP), ("taken/res", SWEEP), ("res", SWEEP),
    (None, []), (None, SWEEP),
])
def test_run_rejects_an_out_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch,
                                                        out, sweep):
    (tmp_path / "taken").write_text("a file\n")
    (tmp_path / "res").mkdir()
    (tmp_path / "res" / "sweep_n_features=8").write_text("a file\n")
    (tmp_path / "results").write_text("a file\n")
    monkeypatch.chdir(tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(cli, "run_experiments", no_run)
    monkeypatch.setattr(cli, "run_experiment", no_run)
    path = rff_config(tmp_path)
    argvs = [["run", "--config", str(path), *sweep]]
    if out is None:
        argvs.append(["validate", "--config", str(path)])
    else:
        argvs[0] += ["--out", str(tmp_path / out)]
    for argv in argvs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory") and "is not a directory" in err
        assert "--out" not in err
    assert (tmp_path / "taken").read_text() == "a file\n"
    assert (tmp_path / "results").read_text() == "a file\n"


@pytest.mark.parametrize("override, field", [(["--runs", "0"], "runs"),
                                             (["--seed", "-1"], "seed")])
@pytest.mark.parametrize("sweep", [[], SWEEP])
def test_run_rejects_a_bad_override_before_the_first_batch(tmp_path, capsys, monkeypatch,
                                                           override, field, sweep):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(runner, "_run_batch", no_batch)
    out = tmp_path / "res"
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 *override, *sweep])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must")
    assert not out.exists()


# one config past the ceiling, and a sweep whose points sum past it
@pytest.mark.parametrize("override", [["--runs", "100000000000"], ["--runs", "1000000", *SWEEP]])
def test_run_refuses_runs_past_the_ceiling_before_planning_a_batch(tmp_path, capsys,
                                                                   monkeypatch, override):
    def no_plan(*args, **kwargs):
        raise AssertionError("batches were planned")

    monkeypatch.setattr(runner, "_plan_batches", no_plan)
    out = tmp_path / "res"
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out), *override])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: runs must")
    assert not out.exists()


def test_validate_refuses_runs_past_the_ceiling(tmp_path, capsys):
    path = rff_config(tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "runs": 1000001}))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: runs must")


# a stream of 10**12 steps or a bank of 10**12 features would need 7.28 or
# 14.6 TiB in the first batch
@pytest.mark.parametrize("field", ["horizon", "n_features"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_validate_and_run_refuse_a_stream_or_bank_past_its_ceiling(tmp_path, capsys,
                                                                    monkeypatch, field,
                                                                    workers):
    def no_plan(*args, **kwargs):
        raise AssertionError("batches were planned")

    monkeypatch.setattr(runner, "_plan_batches", no_plan)
    path = rff_config(tmp_path)
    payload = json.loads(path.read_text())
    if field == "horizon":
        payload["horizon"] = 10**12
    else:
        payload["filters"][0]["n_features"] = 10**12
    path.write_text(json.dumps(payload))
    prefix = "error: filter." if field == "n_features" else "error: "
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{prefix}{field} must")
    out = tmp_path / "res"
    assert main(["run", "--config", str(path), "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err.startswith(f"{prefix}{field} must")
    assert not out.exists()


def test_sweep_rejects_non_integer_n_features(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 "--sweep", "n_features=4:5:0.5"])
    assert code == 2
    assert "n_features" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first run


def test_sweep_rejects_a_field_no_filter_reads(tmp_path, capsys):
    for field in ("lr_freqs", "lr_phases", "coherence_threshold"):
        out = tmp_path / "res"
        code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                     "--sweep", f"{field}=0.1:0.3:0.1"])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


def test_validate_rejects_a_field_the_kind_does_not_read(tmp_path, capsys):
    path = rff_config(tmp_path, lr_freqs=1.0)
    assert main(["validate", "--config", str(path)]) == 2
    assert "lr_freqs" in capsys.readouterr().err


def test_validate_rejects_a_bandwidth_whose_kernel_scale_overflows(tmp_path, capsys):
    path = rff_config(tmp_path)
    path.write_text(path.read_text().replace('"bandwidth": 0.95', '"bandwidth": 1e200'))
    assert main(["validate", "--config", str(path)]) == 2
    assert "filter.bandwidth" in capsys.readouterr().err


# a name that export would not make one directory under results/, a NUL
# byte that no path can hold, and a label that would repeat the curve CSVs'
# step column "n"
@pytest.mark.parametrize("field, value", [
    ("name", ""), ("name", "."), ("name", ".."), ("name", "/tmp/x"), ("name", "../x"),
    ("name", "a\\b"), ("name", "a\u0000b"), ("name", "\u0000"), ("out_dir", "res\u0000x"),
    ("out_dir", ""), ("filter.label", "n"),
])
def test_validate_rejects_a_name_export_would_misplace(tmp_path, capsys, field, value):
    path = rff_config(tmp_path)
    payload = json.loads(path.read_text())
    if field == "filter.label":
        payload["filters"][0]["label"] = value
    else:
        payload[field] = value
    path.write_text(json.dumps(payload))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must")


# a JSON config's path field, and --out, which overrides out_dir
@pytest.mark.parametrize("field, option", [("name", None), ("out_dir", None),
                                           ("out_dir", "--out")])
def test_run_rejects_a_nul_byte_in_a_path_before_the_first_batch(tmp_path, capsys, monkeypatch,
                                                                 field, option):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(runner, "_run_batch", no_batch)
    monkeypatch.chdir(tmp_path)  # where results/<name> would go
    path = rff_config(tmp_path)
    argv = ["run", "--config", str(path)]
    if option:
        argv += [option, str(tmp_path / "res\0x")]
    else:
        payload = json.loads(path.read_text())
        payload[field] = "res\0x"
        path.write_text(json.dumps(payload))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must")
    assert os.listdir(tmp_path) == [path.name]


# a path component longer than the OS allows: the config's name, which
# export makes a directory under results/, or an --out component
@pytest.mark.parametrize("option", [None, "--out"])
def test_run_rejects_an_output_path_the_os_refuses_before_the_first_batch(
        tmp_path, capsys, monkeypatch, option):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(runner, "_run_batch", no_batch)
    monkeypatch.chdir(tmp_path)  # where results/<name> would go
    path = rff_config(tmp_path)
    long = "x" * 300
    argv = ["run", "--config", str(path)]
    if option:
        argv += [option, str(tmp_path / long / "res")]
    else:
        payload = json.loads(path.read_text())
        payload["name"] = long
        path.write_text(json.dumps(payload))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory") and long in err
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory") and long in err
    assert os.listdir(tmp_path) == [path.name]


def test_validate_rejects_mistyped_values(tmp_path, capsys):
    path = rff_config(tmp_path, n_features="8")
    assert main(["validate", "--config", str(path)]) == 2
    assert "n_features" in capsys.readouterr().err


def test_sweep_rejects_non_finite_grid(tmp_path, capsys):
    out = tmp_path / "res"
    for grid in ("0.5:inf:0.5", "0.5:nan:0.5", "nan:1:0.5", "0.5:1:nan"):
        code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                     "--sweep", f"bandwidth={grid}"])
        assert code == 2, grid
        assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:1:1e-320", "0:1:1e-300", "0:1e300:1e-10", "0:1:1e-4"])
def test_sweep_rejects_a_grid_above_the_point_ceiling(tmp_path, capsys, grid):
    # 1e-320 overflows the step count to inf; the others are finite but huge
    out = tmp_path / "res"
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 "--sweep", f"bandwidth={grid}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--sweep" in err and "10000 points" in err
    assert not out.exists()


def test_sweep_accepts_a_grid_at_the_point_ceiling():
    name, values = _parse_sweep("bandwidth=1:10000:1")
    assert len(values) == 10_000 and values[-1] == 10000.0


def test_sweep_checks_every_grid_point_before_the_first_run(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "plant": {"kind": "stationary", "snr_db": 15.0},
        "filters": [{"kind": "coherence-klms", "lr_weights": 0.2, "bandwidth": 0.95,
                     "coherence_threshold": 0.5}],
        "horizon": 40,
        "runs": 1,
        "seed": 3,
        "steady_window": 10,
    }))
    out = tmp_path / "res"
    code = main(["run", "--config", str(path), "--out", str(out),
                 "--sweep", "coherence_threshold=0.5:1.5:0.5"])
    assert code == 2
    assert "coherence_threshold" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_points_within_six_digits_get_their_own_directories(tmp_path, capsys):
    # the grid points differ only past the 6th significant digit
    out = tmp_path / "res"
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 "--sweep", "bandwidth=1.0:1.0000003:0.0000001"])
    assert code == 0
    points = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
    subs = sorted(p.name for p in out.iterdir())
    assert len(subs) == len(points) >= 3
    for sub in subs:
        bandwidth = json.loads((out / sub / "manifest.json").read_text())[
            "config"]["filters"][0]["bandwidth"]
        assert sub == f"sweep_bandwidth={bandwidth:.12g}"


def test_sweep_rejects_points_that_share_a_directory_name(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 "--sweep", "bandwidth=1000000:1000000.0000003:0.0000001"])
    assert code == 2
    assert "directory name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_run_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "res"
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 "--workers", workers])
    assert code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sweep_point_that_fails_ends_the_sweep(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    out = tmp_path / "res"
    # the second point's step size diverges on every run
    code = main(["run", "--config", str(rff_config(tmp_path)), "--out", str(out),
                 "--runs", "2", "--workers", workers,
                 "--sweep", "lr_weights=0.01:200000000.01:1e8"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["sweep_lr_weights=0.01"]
    assert sorted(p.name for p in (out / "sweep_lr_weights=0.01").iterdir()) == sorted(FILES)
    assert multiprocessing.active_children() == []
