import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stream_to_csv
from rfflms import systems
from rfflms.config import ConfigError, PlantConfig
from rfflms.systems import (
    SampleStream,
    calibrate_noise,
    gen_ar1,
    gen_nonstationary_stream,
    gen_stationary_stream,
    kernel_plant_response,
    piecewise_trajectory,
)

# direct evaluation of the first-regime recursion from d_{-1} = d_{-2} = 0.1
D0_FIRST_REGIME = -0.05770527728738879
D1_FIRST_REGIME = -0.15513781882299529
# unit clean power at 15 dB target: 10**(-1.5)
SIGMA2_15DB_UNIT_POWER = 0.03162277660168379

STATIONARY = PlantConfig(kind="stationary", snr_db=15.0, rho=0.5)


def nonstationary(change_step, snr_db=25.0):
    return PlantConfig(kind="nonstationary", snr_db=snr_db, change_step=change_step)


def test_ar1_spec_domain():
    for bad in (1.0, -1.0, 1.5, float("nan")):
        plant = PlantConfig(kind="stationary", snr_db=15.0, rho=bad)
        with pytest.raises(ConfigError, match="plant.rho"):
            gen_stationary_stream(plant, 100, seed=0)


def test_ar1_needs_a_step():
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        gen_ar1(0.5, 0, seed=0)


def test_ar1_rho_zero_is_raw_noise():
    x = gen_ar1(0.0, 500, seed=4)
    u = np.random.default_rng(4).standard_normal(500)
    assert np.allclose(x, u, rtol=0, atol=0)


def test_ar1_deterministic_under_seed():
    a = gen_ar1(0.5, 1000, seed=99)
    b = gen_ar1(0.5, 1000, seed=99)
    assert np.array_equal(a, b)


def test_ar1_moments():
    x = gen_ar1(0.5, 10**6, seed=7)
    assert abs(x.var() - 1.0) <= 0.01
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1 - 0.5) <= 0.01


@settings(max_examples=10, deadline=None)
@given(rho=st.floats(-0.9, 0.9), seed=st.integers(0, 2**31 - 1))
def test_ar1_unit_variance_for_any_rho(rho, seed):
    x = gen_ar1(rho, 2 * 10**5, seed=seed)
    tol = 0.05 * (1 + abs(rho)) / max(1 - abs(rho), 0.1)
    assert abs(x.var() - 1.0) <= tol


def test_kernel_plant_response_at_a_center(monkeypatch):
    # weight vector is a basis vector: landing on that center contributes
    # exactly 1 * weight, with no cross terms
    monkeypatch.setattr(systems, "PLANT_WEIGHTS", np.array([0.0, 2.5]))
    monkeypatch.setattr(systems, "PLANT_CENTERS", np.array([[0.0, 0.0], [5.0, 5.0]]))
    monkeypatch.setattr(systems, "PLANT_BANDWIDTH", 1.0)
    v = kernel_plant_response(np.array([[5.0, 5.0]]))[0]
    cross = 0.0 * math.exp(-50.0 / 2.0)
    assert math.isclose(v, 2.5 + cross, rel_tol=1e-12)


def test_kernel_plant_response_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    got = kernel_plant_response(X)
    for n in range(10):
        expected = sum(
            w * math.exp(-float(np.sum((X[n] - c) ** 2)) / (2.0 * 0.95**2))
            for w, c in zip(systems.PLANT_WEIGHTS, systems.PLANT_CENTERS)
        )
        assert math.isclose(got[n], expected, rel_tol=1e-12)


@pytest.mark.parametrize("field, value, message", [
    ("noise", np.zeros(3), "inputs, targets, clean and noise lengths disagree"),
    ("targets", np.full(4, 2.0), r"targets must equal clean \+ noise"),
    ("inputs", np.full((4, 2), np.nan), "inputs and targets must be finite"),
])
def test_sample_stream_rejects_inconsistent_arrays(field, value, message):
    arrays = dict(inputs=np.zeros((4, 2)), targets=np.ones(4), clean=np.ones(4),
                  noise=np.zeros(4))
    arrays[field] = value
    with pytest.raises(ValueError, match=message):
        SampleStream(**arrays)


def test_stationary_stream_structure():
    s = gen_stationary_stream(STATIONARY, horizon=400, seed=11)
    assert s.inputs.shape == (400, 2)
    assert s.inputs[0, 1] == 0.0  # lagged coordinate warm-starts at zero
    assert np.array_equal(s.inputs[1:, 1], s.inputs[:-1, 0])
    assert np.array_equal(s.targets, s.clean + s.noise)
    assert np.array_equal(s.clean, kernel_plant_response(s.inputs))


def test_stationary_stream_deterministic():
    a = gen_stationary_stream(STATIONARY, 200, seed=5)
    b = gen_stationary_stream(STATIONARY, 200, seed=5)
    assert np.array_equal(a.targets, b.targets)


def test_stationary_stream_zero_weights(monkeypatch):
    monkeypatch.setattr(systems, "PLANT_WEIGHTS", np.zeros(6))
    with pytest.raises(ValueError):
        gen_stationary_stream(STATIONARY, 100, seed=0)
    noiseless = PlantConfig(kind="stationary", snr_db=math.inf, rho=0.5)
    s = gen_stationary_stream(noiseless, 100, seed=0)
    assert np.array_equal(s.clean, np.zeros(100))
    assert np.array_equal(s.targets, s.noise)


def test_stationary_stream_realized_snr():
    s = gen_stationary_stream(STATIONARY, 2 * 10**5, seed=21)
    snr = 10.0 * math.log10(np.mean(s.clean**2) / np.mean(s.noise**2))
    assert abs(snr - 15.0) <= 0.3


def test_piecewise_spec_domain():
    for change_step in (0, 10):
        with pytest.raises(ConfigError, match="plant.change_step"):
            gen_nonstationary_stream(nonstationary(change_step), 10, seed=0)


def test_stream_generators_reject_the_other_plant_kind():
    with pytest.raises(ConfigError, match="plant.kind"):
        gen_stationary_stream(nonstationary(5), 10, seed=0)
    with pytest.raises(ConfigError, match="plant.kind"):
        gen_nonstationary_stream(STATIONARY, 10, seed=0)


def test_piecewise_first_steps_match_direct_evaluation():
    d = piecewise_trajectory(change_step=5, horizon=8)
    assert math.isclose(d[0], D0_FIRST_REGIME, rel_tol=1e-12)
    assert math.isclose(d[1], D1_FIRST_REGIME, rel_tol=1e-12)


def test_piecewise_regime_switch_is_applied_after_change_step():
    # independent scalar recursion, both regimes
    got = piecewise_trajectory(change_step=2, horizon=6)
    dm1 = dm2 = 0.1
    expected = []
    for n in range(6):
        w = math.exp(-dm1 * dm1)
        if n <= 2:
            dn = (0.8 - 0.5 * w) * dm1 + 0.1 * math.sin(dm1 * math.pi) - (0.3 + 0.9 * w) * dm2
        else:
            dn = (0.2 - 0.7 * w) * dm1 + 0.2 * math.sin(dm1 * math.pi) - (0.8 + 0.8 * w) * dm2
        expected.append(dn)
        dm2, dm1 = dm1, dn
    assert np.allclose(got, expected, rtol=0, atol=0)


def test_piecewise_trajectory_is_bounded():
    d = piecewise_trajectory(change_step=5000, horizon=10**4)
    assert np.all(np.isfinite(d))
    assert np.max(np.abs(d)) < 10.0


def test_nonstationary_stream_structure():
    s = gen_nonstationary_stream(nonstationary(50), 120, seed=13)
    d = piecewise_trajectory(change_step=50, horizon=120)
    assert np.array_equal(s.clean, d)
    assert np.array_equal(s.inputs[0], [0.1, 0.1])
    assert np.array_equal(s.inputs[1], [d[0], 0.1])
    assert np.array_equal(s.inputs[2:, 0], d[1:-1])
    assert np.array_equal(s.inputs[2:, 1], d[:-2])
    assert np.array_equal(s.targets, s.clean + s.noise)


def test_piecewise_trajectory_is_shared_and_read_only():
    a = gen_nonstationary_stream(nonstationary(50), 120, seed=13)
    b = gen_nonstationary_stream(nonstationary(50), 120, seed=14)
    assert a.clean.tobytes() == b.clean.tobytes()
    assert not np.array_equal(a.noise, b.noise)
    d = piecewise_trajectory(change_step=50, horizon=120)
    with pytest.raises(ValueError):
        d[0] = 0.0


def test_nonstationary_noise_off():
    s = gen_nonstationary_stream(nonstationary(10, snr_db=math.inf), 30, seed=1)
    assert np.array_equal(s.targets, s.clean)
    assert np.all(s.noise == 0.0)


def test_noise_spec_domain():
    gen_nonstationary_stream(nonstationary(5, snr_db=math.inf), 10, seed=0)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ConfigError, match="plant.snr_db"):
            gen_nonstationary_stream(nonstationary(5, snr_db=bad), 10, seed=0)


def test_calibrate_noise_zero_snr_matches_clean_power():
    clean = np.random.default_rng(0).normal(size=10**5) * 1.7
    z = calibrate_noise(clean, 0.0, seed=2)
    assert abs(np.mean(z**2) / np.mean(clean**2) - 1.0) <= 0.02


def test_calibrate_noise_variance_formula():
    clean = np.ones(10**5)
    z = calibrate_noise(clean, 15.0, seed=3)
    assert abs(np.var(z) - SIGMA2_15DB_UNIT_POWER) <= 0.02 * SIGMA2_15DB_UNIT_POWER


def test_calibrate_noise_realized_snr():
    clean = np.random.default_rng(5).normal(size=10**6)
    z = calibrate_noise(clean, 15.0, seed=6)
    snr = 10.0 * math.log10(np.mean(clean**2) / np.mean(z**2))
    assert abs(snr - 15.0) <= 0.1


def test_calibrate_noise_rejects_zero_clean():
    with pytest.raises(ValueError):
        calibrate_noise(np.zeros(100), 15.0, seed=0)


def test_stream_csv_dump(tmp_path):
    s = gen_stationary_stream(STATIONARY, 25, seed=8)
    path = tmp_path / "stream.csv"
    stream_to_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,x0,x1,clean,y"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0"
    assert math.isclose(float(first[1]), s.inputs[0, 0], rel_tol=1e-10)
    assert math.isclose(float(first[4]), s.targets[0], rel_tol=1e-10)
