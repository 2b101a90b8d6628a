import json

import pytest

from rfflms.cli import main


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


def test_run_config_file(tmp_path):
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


def test_sweep_rejects_bad_grammar(capsys):
    assert main(["run", "stationary-paper", "--sweep", "bandwidth=1:2"]) == 2
    assert main(["run", "stationary-paper", "--sweep", "colour=1:2:1"]) == 2


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
