import json
import math
import re
from pathlib import Path

import pytest

from rfflms.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    list_presets,
    load_config,
    preset,
)


def good_payload():
    return {
        "name": "tiny",
        "plant": {"kind": "stationary", "snr_db": 15.0, "rho": 0.5},
        "filters": [
            {"kind": "rff", "lr_weights": 0.01, "n_features": 8, "bandwidth": 0.95},
            {"kind": "adaptive-rff", "lr_weights": 0.005, "lr_freqs": 1.0,
             "lr_phases": 1.0, "n_features": 8, "bandwidth": 0.95},
        ],
        "horizon": 100,
        "runs": 2,
        "seed": 7,
        "steady_window": 50,
    }


def test_presets_are_listed():
    assert list_presets() == ["nonstationary-paper", "stationary-paper"]


def test_stationary_preset_values():
    cfg = preset("stationary-paper")
    cfg.validate()
    by_kind = {f.kind: f for f in cfg.filters}
    assert set(by_kind) == {"coherence-klms", "rff", "adaptive-rff"}
    cs, rff, arff = by_kind["coherence-klms"], by_kind["rff"], by_kind["adaptive-rff"]
    assert cs.lr_weights == 0.2 and cs.bandwidth == 0.95 and cs.coherence_threshold == 0.7
    assert rff.lr_weights == 0.01 and rff.n_features == 48 and rff.bandwidth == 0.95
    assert arff.lr_weights == 0.005 and arff.n_features == 48 and arff.bandwidth == 0.95
    assert arff.lr_freqs == 1.0 and arff.lr_phases == 1.0
    assert cfg.runs == 200
    assert cfg.horizon == 20000
    assert cfg.steady_window == 5000
    assert cfg.plant.kind == "stationary" and cfg.plant.rho == 0.5
    assert cfg.plant.snr_db == 15.0


def test_nonstationary_preset_values():
    cfg = preset("nonstationary-paper")
    cfg.validate()
    by_kind = {f.kind: f for f in cfg.filters}
    cs, rff, arff = (by_kind["coherence-klms"], by_kind["rff"], by_kind["adaptive-rff"])
    assert cs.lr_weights == 0.05 and cs.coherence_threshold == 0.9
    assert rff.lr_weights == 0.005 and arff.lr_weights == 0.005
    assert arff.lr_freqs == 0.05 and arff.lr_phases == 0.05
    assert rff.n_features == arff.n_features == 96
    assert {f.bandwidth for f in cfg.filters} == {0.3661}
    assert cfg.horizon == 10000
    assert cfg.plant.change_step == 5000
    assert cfg.plant.snr_db == 25.0


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("no-such-preset")


def test_round_trip_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(good_payload()))
    cfg = load_config(path)
    assert cfg.name == "tiny"
    assert cfg.runs == 2
    assert len(cfg.filters) == 2


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_unreadable_config_file_is_a_config_error(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match=re.escape(str(tmp_path))):
        load_config(tmp_path)  # a directory
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.json"):
        load_config(latin1)
    locked = tmp_path / "locked.json"
    locked.write_text("{}")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    with pytest.raises(ConfigError, match="locked.json"):
        load_config(locked)


def test_zero_runs_rejected():
    payload = good_payload()
    payload["runs"] = 0
    with pytest.raises(ConfigError, match="runs"):
        config_from_dict(payload)


def test_window_must_fit_horizon():
    payload = good_payload()
    payload["steady_window"] = 101
    with pytest.raises(ConfigError, match="steady_window"):
        config_from_dict(payload)


def test_unknown_keys_rejected_everywhere():
    payload = good_payload()
    payload["horizons"] = 5
    with pytest.raises(ConfigError, match="horizons"):
        config_from_dict(payload)

    payload = good_payload()
    payload["plant"]["rho_extra"] = 1
    with pytest.raises(ConfigError, match="rho_extra"):
        config_from_dict(payload)

    payload = good_payload()
    payload["filters"][0]["step"] = 0.1
    with pytest.raises(ConfigError, match="step"):
        config_from_dict(payload)


def test_missing_required_key_is_named():
    payload = good_payload()
    del payload["seed"]
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(payload)


def test_filter_requirements_by_kind():
    payload = good_payload()
    payload["filters"][0]["n_features"] = 0
    with pytest.raises(ConfigError, match="n_features"):
        config_from_dict(payload)

    payload = good_payload()
    payload["filters"] = [{"kind": "coherence-klms", "lr_weights": 0.2,
                           "bandwidth": 0.95, "coherence_threshold": 1.2}]
    with pytest.raises(ConfigError, match="coherence_threshold"):
        config_from_dict(payload)

    payload = good_payload()
    payload["filters"][0]["kind"] = "klms"
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict(payload)


def test_empty_filter_list_rejected():
    payload = good_payload()
    payload["filters"] = []
    with pytest.raises(ConfigError, match="filters"):
        config_from_dict(payload)


def test_duplicate_labels_rejected():
    payload = good_payload()
    payload["filters"][1] = dict(payload["filters"][0])
    with pytest.raises(ConfigError, match="unique"):
        config_from_dict(payload)


def test_nonstationary_change_step_bounds():
    payload = good_payload()
    payload["plant"] = {"kind": "nonstationary", "snr_db": 25.0, "change_step": 100}
    with pytest.raises(ConfigError, match="change_step"):
        config_from_dict(payload)


def test_oversized_seed_rejected():
    payload = good_payload()
    payload["seed"] = 2**64
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(payload)
    payload["seed"] = 2**64 - 1
    assert config_from_dict(payload).seed == 2**64 - 1


@pytest.mark.parametrize("where, key, value", [
    ("filter", "n_features", "8"),
    ("filter", "n_features", 8.5),
    ("filter", "n_features", True),
    ("top", "runs", 1.5),
    ("top", "horizon", "50"),
    ("filter", "lr_weights", math.nan),
    ("filter", "bandwidth", math.inf),
    ("plant", "snr_db", math.nan),
    ("plant", "snr_db", -math.inf),
    ("top", "name", 5),
    ("top", "out_dir", 5),
    ("filter", "label", 3),
    ("top", "plant", 5),
    ("top", "plant", {"kind": "stationary"}),  # no snr_db
    ("top", "filters", {"kind": "rff"}),
    ("top", "filters", [5]),
])
def test_mistyped_and_nonfinite_values_rejected(tmp_path, where, key, value):
    payload = good_payload()
    target = {"top": payload, "plant": payload["plant"], "filter": payload["filters"][0]}
    target[where][key] = value
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))  # json writes NaN and Infinity as such
    with pytest.raises(ConfigError, match=key):
        load_config(path)


@pytest.mark.parametrize("field, value", [
    ("plant.kind", "linear"),
    ("horizon", 0),
    ("max_divergence_fraction", -0.1),
    ("max_divergence_fraction", 1.5),
])
def test_out_of_range_values_rejected(field, value):
    payload = good_payload()
    *parent, key = field.split(".")
    (payload[parent[0]] if parent else payload)[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(field)} must"):
        config_from_dict(payload)


def test_top_level_config_must_be_an_object(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps([good_payload()]))
    with pytest.raises(ConfigError, match="top-level config must be an object"):
        load_config(path)


KIND_FIELDS = {
    "rff": {"lr_weights": 0.01, "n_features": 8},
    "adaptive-rff": {"lr_weights": 0.005, "lr_freqs": 1.0, "lr_phases": 1.0, "n_features": 8},
    "coherence-klms": {"lr_weights": 0.2, "coherence_threshold": 0.7},
}


@pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
def test_bandwidth_whose_kernel_scale_leaves_the_floats_is_rejected(kind):
    # 2 * bandwidth**2 underflows to 0 below about 1.6e-162 and overflows
    # above about 9.4e153
    payload = good_payload()
    for bandwidth in (1e-320, 1e-163, 1e200):
        payload["filters"] = [{"kind": kind, "bandwidth": bandwidth, **KIND_FIELDS[kind]}]
        with pytest.raises(ConfigError, match="filter.bandwidth"):
            config_from_dict(payload)
    # the float32 RFF kinds take a narrower range (next test)
    accepted = (1e-160, 1e150) if kind == "coherence-klms" else (1e-37, 1e38)
    for bandwidth in accepted:
        payload["filters"] = [{"kind": kind, "bandwidth": bandwidth, **KIND_FIELDS[kind]}]
        assert config_from_dict(payload).filters[0].bandwidth == bandwidth


@pytest.mark.parametrize("kind", ["rff", "adaptive-rff"])
def test_rff_bandwidth_and_rates_that_float32_cannot_hold_are_rejected(kind):
    # the RFF kinds compute in float32: a bandwidth below 16 / 3.4e38 would
    # sample frequencies past float32's range, one above 3.4e38 is past it,
    # and a nonzero step size must round to neither 0 nor inf
    payload = good_payload()
    for bandwidth in (1e-160, 4e-38, 3.5e38, 1e150):
        payload["filters"] = [{"kind": kind, "bandwidth": bandwidth, **KIND_FIELDS[kind]}]
        with pytest.raises(ConfigError, match="filter.bandwidth .*float32"):
            config_from_dict(payload)
    rates = [name for name in ("lr_weights", "lr_freqs", "lr_phases") if name in KIND_FIELDS[kind]]
    for name in rates:
        for value in (1e39, 1e-46):
            fields = {**KIND_FIELDS[kind], name: value}
            payload["filters"] = [{"kind": kind, "bandwidth": 0.95, **fields}]
            with pytest.raises(ConfigError, match=f"filter.{name} .*float32"):
                config_from_dict(payload)
        for value in (3e38, 1.5e-45):
            fields = {**KIND_FIELDS[kind], name: value}
            payload["filters"] = [{"kind": kind, "bandwidth": 0.95, **fields}]
            assert getattr(config_from_dict(payload).filters[0], name) == value
    # coherence-klms computes in float64
    payload["filters"] = [{"kind": "coherence-klms", "bandwidth": 4e-38,
                           **KIND_FIELDS["coherence-klms"], "lr_weights": 1e39}]
    assert config_from_dict(payload).filters[0].lr_weights == 1e39


@pytest.mark.parametrize("snr_db", [-4000.0, -3083.0])
def test_snr_whose_noise_factor_overflows_is_rejected(snr_db):
    payload = good_payload()
    payload["plant"]["snr_db"] = snr_db
    with pytest.raises(ConfigError, match="plant.snr_db"):
        config_from_dict(payload)
    # an SNR this low whose factor still fits is accepted
    payload["plant"]["snr_db"] = -3080.0
    assert config_from_dict(payload).plant.snr_db == -3080.0


def test_noiseless_plant_is_allowed():
    payload = good_payload()
    payload["plant"]["snr_db"] = math.inf
    assert config_from_dict(payload).plant.snr_db == math.inf


def test_fields_a_kind_does_not_read_must_be_zero():
    for kind_fields, name in [
        ({"kind": "rff", "n_features": 8}, "lr_freqs"),
        ({"kind": "rff", "n_features": 8}, "lr_phases"),
        ({"kind": "rff", "n_features": 8}, "coherence_threshold"),
        ({"kind": "coherence-klms", "coherence_threshold": 0.5}, "n_features"),
    ]:
        payload = good_payload()
        payload["filters"] = [{**kind_fields, "lr_weights": 0.1, "bandwidth": 1.0, name: 1}]
        with pytest.raises(ConfigError, match=name):
            config_from_dict(payload)
    payload = good_payload()
    payload["filters"][0]["lr_freqs"] = 0.0
    assert config_from_dict(payload).filters[0].lr_freqs == 0.0


@pytest.mark.parametrize("plant, name", [
    ({"kind": "nonstationary", "snr_db": 25.0, "change_step": 50, "rho": 0.99}, "plant.rho"),
    ({"kind": "stationary", "snr_db": 15.0, "change_step": 1000000000}, "plant.change_step"),
])
def test_plant_fields_the_kind_does_not_read_must_keep_their_default(plant, name):
    payload = good_payload()
    payload["plant"] = plant
    with pytest.raises(ConfigError, match=name):
        config_from_dict(payload)
    # the default itself, written out, is accepted
    field = name.split(".")[1]
    payload["plant"][field] = {"rho": 0.5, "change_step": 5000}[field]
    assert getattr(config_from_dict(payload).plant, field) == payload["plant"][field]


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
def test_stationary_plant_rho_must_lie_inside_the_unit_interval(rho):
    payload = good_payload()
    payload["plant"]["rho"] = rho
    with pytest.raises(ConfigError, match="plant.rho"):
        config_from_dict(payload)


@pytest.mark.parametrize("name", ["stationary-paper", "nonstationary-paper"])
def test_presets_round_trip_through_their_manifest_form(name):
    cfg = preset(name)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
