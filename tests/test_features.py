import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import feature_map, feature_partials, kernel_estimate
from rfflms.features import sample_feature_bank
from rfflms.filters import AdaptiveRffLms

# high-precision scalar evaluation of the Gaussian kernel at distance 1,
# bandwidth 0.95: exp(-1 / (2 * 0.95**2))
KERNEL_AT_DIST1_BW095 = 0.5746370697554741


def test_spec_rejects_bad_parameters():
    # 1 / 1e-320 is inf, and 2 * 1e200**2 overflows
    for bad in (0.0, -1.0, math.nan, math.inf, 1e-320, 1e200):
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
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_single_feature_shape_contract():
    freqs, phases = sample_feature_bank(bandwidth=1.0, n_features=1, input_dim=1, seed=3)
    assert (freqs.shape, freqs.dtype) == ((1, 1), np.float64)
    assert (phases.shape, phases.dtype) == ((1,), np.float64)
    assert 0.0 <= phases[0] < 2.0 * math.pi


def test_sampling_moments_match_the_law():
    # frequencies i.i.d. N(0, 1/xi^2): pooled mean within 4 sigma / sqrt(N),
    # pooled variance within 2% of 1/xi^2
    freqs, phases = sample_feature_bank(bandwidth=0.95, n_features=10**5, input_dim=2, seed=7)
    n = freqs.size
    sigma = 1.0 / 0.95
    assert abs(freqs.mean()) <= 4.0 * sigma / math.sqrt(n)
    assert abs(freqs.var() - sigma**2) <= 0.02 * sigma**2
    assert np.all((phases >= 0.0) & (phases < 2.0 * math.pi))


def test_bank_validates_shapes_and_amplitude():
    # the filter that stacks the banks, one per run, checks them once
    def build(freqs, phases):
        return AdaptiveRffLms(freqs, phases, 0.1, 0.0, 0.0)

    with pytest.raises(ValueError, match=r"\(1, 3, 2\) and \(1, 2\)"):
        build([np.zeros((3, 2))], [np.zeros(2)])
    # one run's bank in a sequence: (D, L) and (D,), nothing else
    for freqs, phases in [((2, 3, 2), (2, 3)), ((2, 3, 2), (3,)), ((1, 2, 3, 2), (1, 2, 3)),
                          ((6, 2), (2, 3)), ((2,), (1,))]:
        with pytest.raises(ValueError, match="shape"):
            build([np.zeros(freqs)], [np.zeros(phases)])
    # no empty axis, (R, 0, L) or (R, D, 0), given stacked or as one run's
    # bank: the constructor refuses it, so that run never meets it
    for freqs, phases in [((2, 0, 2), (2, 0)), ((2, 3, 0), (2, 3))]:
        with pytest.raises(ValueError, match="none of them 0"):
            build(np.zeros(freqs), np.zeros(phases))
        with pytest.raises(ValueError, match="none of them 0"):
            build([np.zeros(freqs[1:])], [np.zeros(phases[1:])])
    # (0, D, L): no run to stack, which np.stack refuses
    for freqs, phases in [(np.zeros((0, 3, 2)), np.zeros((0, 3))), ([], [])]:
        with pytest.raises(ValueError):
            build(freqs, phases)
    f = build([np.zeros((3, 4))], [np.zeros(3)])
    assert (f.n_runs, f.model_size[0], f.input_dim) == (1, 3, 4)
    stacked = build(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    assert (stacked.n_runs, stacked.model_size[0], stacked.input_dim) == (2, 3, 4)
    with pytest.raises(ValueError, match="finite"):
        build([np.array([[np.inf, 0.0]])], [np.zeros(1)])


def test_map_at_origin_with_zero_phases_is_all_ones():
    assert np.array_equal(feature_map(np.ones((5, 3)), np.zeros(5), np.zeros(3)), np.ones(5))


def test_map_hits_cosine_zero():
    freqs = np.array([[math.pi / 2.0, 0.0]])
    assert abs(feature_map(freqs, np.zeros(1), np.array([1.0, 0.0]))[0]) <= 1e-12


def test_map_rejects_bad_input():
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    with pytest.raises(ValueError):
        feature_map(*bank, np.zeros(3))
    with pytest.raises(ValueError):
        feature_map(*bank, np.array([np.nan, 0.0]))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    x=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
)
def test_map_is_bounded_by_amplitude(seed, x):
    bank = sample_feature_bank(0.7, 12, 2, seed=seed)
    z = feature_map(*bank, np.array(x))
    assert np.max(np.abs(z)) <= 1.0 + 1e-15


def test_kernel_estimate_self_similarity_range():
    bank = sample_feature_bank(1.0, 64, 2, seed=5)
    x = np.array([0.4, -1.1])
    v = kernel_estimate(*bank, x, x)
    assert 0.0 <= v <= 2.0


def test_kernel_estimate_mean_over_banks_matches_exact_kernel():
    # pair at distance 1, bandwidth 0.95, averaged over 200 fresh banks
    x = np.array([0.25, -0.5])
    x2 = x + np.array([1.0, 0.0])
    spec = dict(bandwidth=0.95, n_features=2048, input_dim=2)
    est = np.mean([
        kernel_estimate(*sample_feature_bank(**spec, seed=s), x, x2)
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
        assert abs(kernel_estimate(*bank, x, x2) - exact) <= 0.05


def test_kernel_estimate_error_shrinks_with_bank_size():
    # Monte Carlo rate check: averaged |error| nonincreasing over the D ladder
    x = np.array([0.3, 0.9])
    x2 = np.array([-0.4, 0.2])
    exact = math.exp(-float(np.sum((x - x2) ** 2)) / (2.0 * 0.95**2))
    mean_abs_err = []
    for d in (2**6, 2**8, 2**10, 2**12):
        errs = [
            abs(kernel_estimate(
                *sample_feature_bank(0.95, d, 2, seed=s),
                x, x2) - exact)
            for s in range(100)
        ]
        mean_abs_err.append(np.mean(errs))
    assert all(a >= b for a, b in zip(mean_abs_err, mean_abs_err[1:]))


def test_partials_vanish_at_zero_angle():
    x = np.array([3.0, 0.0])  # angle 1*3 + 2*0 - 3 = 0
    d_freq, d_phase = feature_partials(np.array([[1.0, 2.0]]), np.array([-3.0]), x, 0)
    assert np.allclose(d_freq, 0.0, atol=1e-15)
    assert abs(d_phase) <= 1e-15


def test_partials_zero_input_kills_frequency_partial():
    freqs, phases = sample_feature_bank(1.0, 6, 3, seed=2)
    d_freq, d_phase = feature_partials(freqs, phases, np.zeros(3), 4)
    assert np.array_equal(d_freq, np.zeros(3))
    assert d_phase != 0.0 or math.isclose(math.sin(phases[4]), 0.0)


def test_partials_index_out_of_range():
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    with pytest.raises(IndexError):
        feature_partials(*bank, np.zeros(2), 4)
    with pytest.raises(IndexError):
        feature_partials(*bank, np.zeros(2), -1)


def test_partials_match_central_finite_differences():
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(100):
        freqs, phases = sample_feature_bank(1.0, 5, 2, seed=int(rng.integers(2**31)))
        x = rng.normal(size=2)
        m = int(rng.integers(5))
        d_freq, d_phase = feature_partials(freqs, phases, x, m)
        for i in range(2):
            hi = freqs.copy()
            lo = freqs.copy()
            hi[m, i] += h
            lo[m, i] -= h
            fd = (feature_map(hi, phases, x)[m] - feature_map(lo, phases, x)[m]) / (2 * h)
            assert math.isclose(fd, d_freq[i], rel_tol=1e-6, abs_tol=1e-10)
        hi = phases.copy()
        lo = phases.copy()
        hi[m] += h
        lo[m] -= h
        fd = (feature_map(freqs, hi, x)[m] - feature_map(freqs, lo, x)[m]) / (2 * h)
        assert math.isclose(fd, d_phase, rel_tol=1e-6, abs_tol=1e-10)
