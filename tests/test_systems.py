import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stream_to_csv
from rfflms.systems import (
    Ar1Spec,
    KernelPlantSpec,
    NoiseSpec,
    PiecewisePlantSpec,
    calibrate_noise,
    gen_ar1,
    gen_nonstationary_stream,
    gen_stationary_stream,
)

# direct evaluation of the first-regime recursion from d_{-1} = d_{-2} = 0.1
D0_FIRST_REGIME = -0.05770527728738879
D1_FIRST_REGIME = -0.15513781882299529
# unit clean power at 15 dB target: 10**(-1.5)
SIGMA2_15DB_UNIT_POWER = 0.03162277660168379


def test_ar1_spec_domain():
    for bad in (1.0, -1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            Ar1Spec(bad)


def test_ar1_rho_zero_is_raw_noise():
    x = gen_ar1(Ar1Spec(0.0), 500, seed=4)
    u = np.random.default_rng(4).standard_normal(500)
    assert np.allclose(x, u, rtol=0, atol=0)


def test_ar1_deterministic_under_seed():
    a = gen_ar1(Ar1Spec(0.5), 1000, seed=99)
    b = gen_ar1(Ar1Spec(0.5), 1000, seed=99)
    assert np.array_equal(a, b)


def test_ar1_moments():
    x = gen_ar1(Ar1Spec(0.5), 10**6, seed=7)
    assert abs(x.var() - 1.0) <= 0.01
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1 - 0.5) <= 0.01


@settings(max_examples=10, deadline=None)
@given(rho=st.floats(-0.9, 0.9), seed=st.integers(0, 2**31 - 1))
def test_ar1_unit_variance_for_any_rho(rho, seed):
    x = gen_ar1(Ar1Spec(rho), 2 * 10**5, seed=seed)
    tol = 0.05 * (1 + abs(rho)) / max(1 - abs(rho), 0.1)
    assert abs(x.var() - 1.0) <= tol


def test_kernel_plant_response_at_a_center():
    # weight vector is a basis vector: landing on that center contributes
    # exactly 1 * weight, with no cross terms
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    plant = KernelPlantSpec(weights=[0.0, 2.5], centers=centers, bandwidth=1.0)
    v = plant.response(np.array([[5.0, 5.0]]))[0]
    cross = 0.0 * math.exp(-50.0 / 2.0)
    assert math.isclose(v, 2.5 + cross, rel_tol=1e-12)


def test_kernel_plant_response_matches_scalar_oracle():
    plant = KernelPlantSpec()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    got = plant.response(X)
    for n in range(10):
        expected = sum(
            w * math.exp(-float(np.sum((X[n] - c) ** 2)) / (2.0 * plant.bandwidth**2))
            for w, c in zip(plant.weights, plant.centers)
        )
        assert math.isclose(got[n], expected, rel_tol=1e-12)


def test_stationary_stream_structure():
    s = gen_stationary_stream(KernelPlantSpec(), Ar1Spec(0.5), NoiseSpec(15.0),
                              n_steps=400, seed=11)
    assert s.inputs.shape == (400, 2)
    assert s.inputs[0, 1] == 0.0  # lagged coordinate warm-starts at zero
    assert np.array_equal(s.inputs[1:, 1], s.inputs[:-1, 0])
    assert np.array_equal(s.targets, s.clean + s.noise)
    assert np.array_equal(s.clean, KernelPlantSpec().response(s.inputs))


def test_stationary_stream_deterministic():
    a = gen_stationary_stream(KernelPlantSpec(), Ar1Spec(0.5), NoiseSpec(15.0), 200, seed=5)
    b = gen_stationary_stream(KernelPlantSpec(), Ar1Spec(0.5), NoiseSpec(15.0), 200, seed=5)
    assert np.array_equal(a.targets, b.targets)


def test_stationary_stream_zero_weights():
    plant = KernelPlantSpec(weights=np.zeros(6))
    with pytest.raises(ValueError):
        gen_stationary_stream(plant, Ar1Spec(0.5), NoiseSpec(15.0), 100, seed=0)
    s = gen_stationary_stream(plant, Ar1Spec(0.5), NoiseSpec(math.inf), 100, seed=0)
    assert np.array_equal(s.clean, np.zeros(100))
    assert np.array_equal(s.targets, s.noise)


def test_stationary_stream_realized_snr():
    s = gen_stationary_stream(KernelPlantSpec(), Ar1Spec(0.5), NoiseSpec(15.0),
                              2 * 10**5, seed=21)
    snr = 10.0 * math.log10(np.mean(s.clean**2) / np.mean(s.noise**2))
    assert abs(snr - 15.0) <= 0.3


def test_piecewise_spec_domain():
    with pytest.raises(ValueError):
        PiecewisePlantSpec(change_step=0, horizon=10)
    with pytest.raises(ValueError):
        PiecewisePlantSpec(change_step=10, horizon=10)


def test_piecewise_first_steps_match_direct_evaluation():
    d = PiecewisePlantSpec(change_step=5, horizon=8).trajectory()
    assert math.isclose(d[0], D0_FIRST_REGIME, rel_tol=1e-12)
    assert math.isclose(d[1], D1_FIRST_REGIME, rel_tol=1e-12)


def test_piecewise_regime_switch_is_applied_after_change_step():
    # independent scalar recursion, both regimes
    spec = PiecewisePlantSpec(change_step=2, horizon=6)
    got = spec.trajectory()
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
    d = PiecewisePlantSpec(change_step=5000, horizon=10**4).trajectory()
    assert np.all(np.isfinite(d))
    assert np.max(np.abs(d)) < 10.0


def test_nonstationary_stream_structure():
    spec = PiecewisePlantSpec(change_step=50, horizon=120)
    s = gen_nonstationary_stream(spec, NoiseSpec(25.0), seed=13)
    d = spec.trajectory()
    assert np.array_equal(s.clean, d)
    assert np.array_equal(s.inputs[0], [0.1, 0.1])
    assert np.array_equal(s.inputs[1], [d[0], 0.1])
    assert np.array_equal(s.inputs[2:, 0], d[1:-1])
    assert np.array_equal(s.inputs[2:, 1], d[:-2])
    assert np.array_equal(s.targets, s.clean + s.noise)


def test_nonstationary_noise_off():
    s = gen_nonstationary_stream(PiecewisePlantSpec(change_step=10, horizon=30),
                                 NoiseSpec(math.inf), seed=1)
    assert np.array_equal(s.targets, s.clean)
    assert np.all(s.noise == 0.0)


def test_noise_spec_domain():
    NoiseSpec(math.inf)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            NoiseSpec(bad)


def test_calibrate_noise_zero_snr_matches_clean_power():
    clean = np.random.default_rng(0).normal(size=10**5) * 1.7
    z = calibrate_noise(clean, NoiseSpec(0.0), seed=2)
    assert abs(np.mean(z**2) / np.mean(clean**2) - 1.0) <= 0.02


def test_calibrate_noise_variance_formula():
    clean = np.ones(10**5)
    z = calibrate_noise(clean, NoiseSpec(15.0), seed=3)
    assert abs(np.var(z) - SIGMA2_15DB_UNIT_POWER) <= 0.02 * SIGMA2_15DB_UNIT_POWER


def test_calibrate_noise_realized_snr():
    clean = np.random.default_rng(5).normal(size=10**6)
    z = calibrate_noise(clean, NoiseSpec(15.0), seed=6)
    snr = 10.0 * math.log10(np.mean(clean**2) / np.mean(z**2))
    assert abs(snr - 15.0) <= 0.1


def test_calibrate_noise_rejects_zero_clean():
    with pytest.raises(ValueError):
        calibrate_noise(np.zeros(100), NoiseSpec(15.0), seed=0)


def test_stream_csv_dump(tmp_path):
    s = gen_stationary_stream(KernelPlantSpec(), Ar1Spec(0.5), NoiseSpec(15.0), 25, seed=8)
    path = tmp_path / "stream.csv"
    stream_to_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,x0,x1,clean,y"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0"
    assert math.isclose(float(first[1]), s.inputs[0, 0], rel_tol=1e-10)
    assert math.isclose(float(first[4]), s.targets[0], rel_tol=1e-10)
