import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import feature_map, feature_partials, kernel_estimate
from rfflms.features import FeatureBank, sample_feature_bank

# high-precision scalar evaluation of the Gaussian kernel at distance 1,
# bandwidth 0.95: exp(-1 / (2 * 0.95**2))
KERNEL_AT_DIST1_BW095 = 0.5746370697554741


def test_spec_rejects_bad_parameters():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bandwidth"):
            sample_feature_bank(bandwidth=bad, n_features=4, input_dim=2, seed=0)
    with pytest.raises(ValueError, match="n_features"):
        sample_feature_bank(bandwidth=1.0, n_features=0, input_dim=2, seed=0)
    with pytest.raises(ValueError, match="input_dim"):
        sample_feature_bank(bandwidth=1.0, n_features=4, input_dim=0, seed=0)


def test_sampling_is_deterministic_under_seed():
    spec = dict(bandwidth=1.3, n_features=16, input_dim=3, seed=42)
    a = sample_feature_bank(**spec)
    b = sample_feature_bank(**spec)
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.phases, b.phases)


def test_single_feature_shape_contract():
    bank = sample_feature_bank(bandwidth=1.0, n_features=1, input_dim=1, seed=3)
    assert bank.freqs.shape == (1, 1)
    assert bank.phases.shape == (1,)
    assert 0.0 <= bank.phases[0] < 2.0 * math.pi


def test_sampling_moments_match_the_law():
    # frequencies i.i.d. N(0, 1/xi^2): pooled mean within 4 sigma / sqrt(N),
    # pooled variance within 2% of 1/xi^2
    bank = sample_feature_bank(bandwidth=0.95, n_features=10**5, input_dim=2, seed=7)
    n = bank.freqs.size
    sigma = 1.0 / 0.95
    assert abs(bank.freqs.mean()) <= 4.0 * sigma / math.sqrt(n)
    assert abs(bank.freqs.var() - sigma**2) <= 0.02 * sigma**2
    assert np.all((bank.phases >= 0.0) & (bank.phases < 2.0 * math.pi))


def test_bank_validates_shapes_and_amplitude():
    with pytest.raises(ValueError):
        FeatureBank(np.zeros((3, 2)), np.zeros(2))
    # R stacked banks need (R, D) phases
    for freqs, phases in [((2, 3, 2), (3,)), ((2, 3, 2), (2, 2)), ((1, 2, 3, 2), (1, 2, 3))]:
        with pytest.raises(ValueError):
            FeatureBank(np.zeros(freqs), np.zeros(phases))
    stacked = FeatureBank(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    assert (stacked.n_features, stacked.input_dim) == (3, 4)
    with pytest.raises(ValueError):
        FeatureBank(np.array([[np.inf, 0.0]]), np.zeros(1))


def test_map_at_origin_with_zero_phases_is_all_ones():
    bank = FeatureBank(np.ones((5, 3)), np.zeros(5))
    assert np.array_equal(feature_map(bank, np.zeros(3)), np.ones(5))


def test_map_hits_cosine_zero():
    bank = FeatureBank(np.array([[math.pi / 2.0, 0.0]]), np.zeros(1))
    assert abs(feature_map(bank, np.array([1.0, 0.0]))[0]) <= 1e-12


def test_map_rejects_bad_input():
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    with pytest.raises(ValueError):
        feature_map(bank, np.zeros(3))
    with pytest.raises(ValueError):
        feature_map(bank, np.array([np.nan, 0.0]))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    x=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
)
def test_map_is_bounded_by_amplitude(seed, x):
    bank = sample_feature_bank(0.7, 12, 2, seed=seed)
    z = feature_map(bank, np.array(x))
    assert np.max(np.abs(z)) <= 1.0 + 1e-15


def test_kernel_estimate_self_similarity_range():
    bank = sample_feature_bank(1.0, 64, 2, seed=5)
    x = np.array([0.4, -1.1])
    v = kernel_estimate(bank, x, x)
    assert 0.0 <= v <= 2.0


def test_kernel_estimate_mean_over_banks_matches_exact_kernel():
    # pair at distance 1, bandwidth 0.95, averaged over 200 fresh banks
    x = np.array([0.25, -0.5])
    x2 = x + np.array([1.0, 0.0])
    spec = dict(bandwidth=0.95, n_features=2048, input_dim=2)
    est = np.mean([
        kernel_estimate(sample_feature_bank(**spec, seed=s), x, x2)
        for s in range(200)
    ])
    assert abs(est - KERNEL_AT_DIST1_BW095) <= 0.02


def test_kernel_estimate_single_large_bank_is_close():
    bank = sample_feature_bank(1.0, 2**16, 2, seed=11)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        delta = rng.uniform(-1, 1, 2)
        norm = np.linalg.norm(delta)
        if norm > 0:
            delta *= rng.uniform(0, 3) / norm
        x2 = x + delta
        exact = math.exp(-float(np.sum((x - x2) ** 2)) / 2.0)
        assert abs(kernel_estimate(bank, x, x2) - exact) <= 0.05


def test_kernel_estimate_error_shrinks_with_bank_size():
    # Monte Carlo rate check: averaged |error| nonincreasing over the D ladder
    x = np.array([0.3, 0.9])
    x2 = np.array([-0.4, 0.2])
    exact = math.exp(-float(np.sum((x - x2) ** 2)) / (2.0 * 0.95**2))
    mean_abs_err = []
    for d in (2**6, 2**8, 2**10, 2**12):
        errs = [
            abs(kernel_estimate(
                sample_feature_bank(0.95, d, 2, seed=s),
                x, x2) - exact)
            for s in range(100)
        ]
        mean_abs_err.append(np.mean(errs))
    assert all(a >= b for a, b in zip(mean_abs_err, mean_abs_err[1:]))


def test_partials_vanish_at_zero_angle():
    bank = FeatureBank(np.array([[1.0, 2.0]]), np.array([-3.0]))
    x = np.array([3.0, 0.0])  # angle 1*3 + 2*0 - 3 = 0
    d_freq, d_phase = feature_partials(bank, x, 0)
    assert np.allclose(d_freq, 0.0, atol=1e-15)
    assert abs(d_phase) <= 1e-15


def test_partials_zero_input_kills_frequency_partial():
    bank = sample_feature_bank(1.0, 6, 3, seed=2)
    d_freq, d_phase = feature_partials(bank, np.zeros(3), 4)
    assert np.array_equal(d_freq, np.zeros(3))
    assert d_phase != 0.0 or math.isclose(math.sin(bank.phases[4]), 0.0)


def test_partials_index_out_of_range():
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    with pytest.raises(IndexError):
        feature_partials(bank, np.zeros(2), 4)
    with pytest.raises(IndexError):
        feature_partials(bank, np.zeros(2), -1)


def test_partials_match_central_finite_differences():
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(100):
        bank = sample_feature_bank(1.0, 5, 2, seed=int(rng.integers(2**31)))
        x = rng.normal(size=2)
        m = int(rng.integers(5))
        d_freq, d_phase = feature_partials(bank, x, m)
        for i in range(2):
            hi = bank.copy()
            lo = bank.copy()
            hi.freqs[m, i] += h
            lo.freqs[m, i] -= h
            fd = (feature_map(hi, x)[m] - feature_map(lo, x)[m]) / (2 * h)
            assert math.isclose(fd, d_freq[i], rel_tol=1e-6, abs_tol=1e-10)
        hi = bank.copy()
        lo = bank.copy()
        hi.phases[m] += h
        lo.phases[m] -= h
        fd = (feature_map(hi, x)[m] - feature_map(lo, x)[m]) / (2 * h)
        assert math.isclose(fd, d_phase, rel_tol=1e-6, abs_tol=1e-10)
