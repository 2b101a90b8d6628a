import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_eval, klms_reference
from rfflms.features import FeatureBank, RffSpec, sample_feature_bank
from rfflms.filters import AdaptiveRffLms, CoherenceKlms, DivergenceError, RffLms
from rfflms.kernels import GaussianKernel

# hand-computed single step from weights=0, D=1, L=1, freq=1, phase=0,
# x=1, y=1, lr_weights=0.1: z=cos(1), e=1, weights -> 0.1*cos(1);
# freq and phase unchanged because the pre-update weight is zero
ONE_STEP_WEIGHT = 0.05403023058681397


def scalar_bank(freq=1.0, phase=0.0):
    return FeatureBank(np.array([[freq]]), np.array([phase]))


def random_state(seed, n_features=8, input_dim=2):
    rng = np.random.default_rng(seed)
    bank = sample_feature_bank(
        RffSpec(1.0, n_features, input_dim, seed=int(rng.integers(2**31)))
    )
    f = AdaptiveRffLms(bank, 0.1, 0.2, 0.3)
    f.weights = rng.normal(size=n_features)
    return f, rng


def test_zero_weights_predict_zero():
    bank = sample_feature_bank(RffSpec(1.0, 6, 2, seed=1))
    f = AdaptiveRffLms(bank, 0.01, 0.01, 0.01)
    assert f.predict(np.array([0.7, -2.0])) == 0.0


def test_predict_is_a_dot_product():
    f = AdaptiveRffLms(scalar_bank(freq=0.0, phase=math.acos(0.5)), 0.1, 0.0, 0.0)
    f.weights = np.array([2.0])
    assert math.isclose(f.predict(np.array([123.0])), 1.0, rel_tol=1e-12)


def test_prediction_invariant_under_phase_wrap():
    f, rng = random_state(5)
    x = rng.normal(size=2)
    before = f.predict(x)
    f.bank.phases[3] += 2.0 * math.pi
    assert math.isclose(f.predict(x), before, rel_tol=0, abs_tol=1e-12)


def test_one_step_hand_oracle():
    f = AdaptiveRffLms(scalar_bank(), lr_weights=0.1, lr_freqs=1.0, lr_phases=1.0)
    out = f.step(np.array([1.0]), 1.0)
    assert out.prediction == 0.0
    assert out.error == 1.0
    assert math.isclose(f.weights[0], ONE_STEP_WEIGHT, rel_tol=1e-15)
    assert f.bank.freqs[0, 0] == 1.0
    assert f.bank.phases[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_zero_error_is_a_fixed_point(seed):
    f, rng = random_state(seed)
    x = rng.normal(size=2)
    y = f.predict(x)
    w0, fr0, ph0 = f.weights.copy(), f.bank.freqs.copy(), f.bank.phases.copy()
    out = f.step(x, y)
    assert out.error == 0.0
    assert np.array_equal(f.weights, w0)
    assert np.array_equal(f.bank.freqs, fr0)
    assert np.array_equal(f.bank.phases, ph0)


def test_frozen_feature_updates_match_rff_bit_for_bit():
    bank = sample_feature_bank(RffSpec(0.95, 48, 2, seed=77))
    arff = AdaptiveRffLms(bank, 0.01, 0.0, 0.0)
    rff = RffLms(bank, 0.01)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        x = rng.normal(size=2)
        y = float(rng.normal())
        a = arff.step(x, y)
        b = rff.step(x, y)
        assert a.prediction == b.prediction
        assert a.error == b.error
    assert np.array_equal(arff.weights, rff.weights)
    assert np.array_equal(arff.bank.freqs, rff.bank.freqs)


def test_rff_first_step_from_zero_weights():
    bank = sample_feature_bank(RffSpec(1.0, 4, 2, seed=9))
    f = RffLms(bank, 0.05)
    x = np.array([0.2, -0.7])
    z = np.cos(bank.freqs @ x + bank.phases)
    out = f.step(x, 2.0)
    assert out.prediction == 0.0
    assert out.error == 2.0
    assert np.allclose(f.weights, 0.05 * 2.0 * z, rtol=0, atol=1e-15)


def test_rff_zero_targets_keep_zero_state():
    bank = sample_feature_bank(RffSpec(1.0, 4, 2, seed=10))
    f = RffLms(bank, 0.5)
    rng = np.random.default_rng(1)
    for _ in range(100):
        f.step(rng.normal(size=2), 0.0)
    assert np.array_equal(f.weights, np.zeros(4))


def test_rff_three_steps_match_scalar_recursion():
    # independent scalar LMS recursion, pure python floats
    freq, phase, lr = 0.8, 0.3, 0.2
    xs = [1.0, -0.5, 2.0]
    ys = [0.7, 0.1, -1.2]
    w = 0.0
    for x, y in zip(xs, ys):
        z = math.cos(freq * x + phase)
        e = y - w * z
        w = w + lr * e * z
    f = RffLms(scalar_bank(freq, phase), lr)
    for x, y in zip(xs, ys):
        f.step(np.array([x]), y)
    assert math.isclose(f.weights[0], w, rel_tol=0, abs_tol=1e-12)


def test_error_equals_target_minus_prediction():
    f, rng = random_state(21)
    x = rng.normal(size=2)
    y = 1.7
    pred = f.predict(x)
    out = f.step(x, y)
    assert out.error == y - out.prediction
    assert out.prediction == pred


def test_instantaneous_loss():
    f, rng = random_state(8)
    x = rng.normal(size=2)
    assert f.loss(x, f.predict(x)) == 0.0
    g = AdaptiveRffLms(f.bank, 0.1, 0.1, 0.1)  # zero weights
    assert g.loss(x, 3.0) == 9.0
    w0 = f.weights.copy()
    f.loss(x, 1.0)
    assert np.array_equal(f.weights, w0)


def test_update_directions_are_loss_gradients():
    # step deltas with unit rates vs central finite differences of loss:
    # delta = -(1/2) dL/d(param) evaluated pre-update
    rng = np.random.default_rng(44)
    h = 1e-6
    for _ in range(20):
        f, frng = random_state(int(rng.integers(2**31)))
        f.lr_weights = f.lr_freqs = f.lr_phases = 1.0
        x = frng.normal(size=2)
        y = float(frng.normal())

        ref = AdaptiveRffLms(f.bank, 1.0, 1.0, 1.0)
        ref.weights = f.weights.copy()

        def loss_at(dw=None, dfreq=None, dph=None):
            g = AdaptiveRffLms(ref.bank, 1.0, 1.0, 1.0)
            g.weights = ref.weights.copy()
            if dw is not None:
                g.weights += dw
            if dfreq is not None:
                g.bank.freqs += dfreq
            if dph is not None:
                g.bank.phases += dph
            return g.loss(x, y)

        f.step(x, y)
        d_w = f.weights - ref.weights
        d_freq = f.bank.freqs - ref.bank.freqs
        d_ph = f.bank.phases - ref.bank.phases

        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (loss_at(dw=e) - loss_at(dw=-e)) / (2 * h)
            assert math.isclose(d_w[i], -0.5 * fd, rel_tol=1e-5, abs_tol=1e-8)
        for m in range(8):
            for j in range(2):
                e = np.zeros((8, 2))
                e[m, j] = h
                fd = (loss_at(dfreq=e) - loss_at(dfreq=-e)) / (2 * h)
                assert math.isclose(d_freq[m, j], -0.5 * fd, rel_tol=1e-5, abs_tol=1e-8)
            e = np.zeros(8)
            e[m] = h
            fd = (loss_at(dph=e) - loss_at(dph=-e)) / (2 * h)
            assert math.isclose(d_ph[m], -0.5 * fd, rel_tol=1e-5, abs_tol=1e-8)


def test_non_finite_input_is_a_stream_error():
    f, _ = random_state(2)
    with pytest.raises(ValueError):
        f.step(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        f.step(np.zeros(2), math.inf)
    with pytest.raises(ValueError):
        f.step(np.zeros(3), 1.0)


def test_divergence_raises_with_step_index():
    bank = sample_feature_bank(RffSpec(1.0, 4, 2, seed=0))
    f = AdaptiveRffLms(bank, 1e150, 1e150, 1e150)
    rng = np.random.default_rng(0)
    with pytest.raises(DivergenceError) as err:
        for _ in range(50):
            f.step(rng.normal(size=2), float(rng.normal()))
    assert 1 <= err.value.step <= 50


def test_negative_rates_rejected():
    bank = sample_feature_bank(RffSpec(1.0, 4, 2, seed=0))
    with pytest.raises(ValueError):
        AdaptiveRffLms(bank, -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        RffLms(bank, -0.1)
    with pytest.raises(ValueError):
        CoherenceKlms(GaussianKernel(1.0), 0.5, -0.1, 2)


def test_filters_do_not_alias_the_given_bank():
    bank = sample_feature_bank(RffSpec(1.0, 4, 2, seed=0))
    f = AdaptiveRffLms(bank, 0.1, 0.5, 0.5)
    f.weights[:] = 1.0
    f.step(np.ones(2), 5.0)
    fresh = sample_feature_bank(RffSpec(1.0, 4, 2, seed=0))
    assert np.array_equal(bank.freqs, fresh.freqs)


def test_klms_first_sample_is_admitted():
    f = CoherenceKlms(GaussianKernel(0.95), 0.7, 0.2, input_dim=2)
    out = f.step(np.array([0.3, 0.4]), 1.5)
    assert out.prediction == 0.0
    assert out.model_size == 1
    assert math.isclose(f.weights[0], 0.2 * 1.5 * 1.0, rel_tol=1e-15)


def test_klms_repeated_input_never_grows_the_dictionary():
    f = CoherenceKlms(GaussianKernel(1.0), 0.9, 0.1, input_dim=2)
    x = np.array([1.0, -1.0])
    for k in range(200):
        out = f.step(x, 0.5)
    assert out.model_size == 1


def test_klms_weights_track_dictionary_size():
    f = CoherenceKlms(GaussianKernel(0.5), 0.5, 0.05, input_dim=2)
    rng = np.random.default_rng(12)
    for _ in range(300):
        out = f.step(rng.normal(size=2) * 2, float(rng.normal()))
        assert len(f.weights) == out.model_size == len(f.dictionary)
    c = f.dictionary.centers
    for i in range(len(f.dictionary)):
        for j in range(i + 1, len(f.dictionary)):
            assert kernel_eval(f.kernel, c[i], c[j]) <= 0.5 + 1e-12


def test_klms_zero_error_fixed_point():
    f = CoherenceKlms(GaussianKernel(1.0), 0.6, 0.1, input_dim=2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        f.step(rng.normal(size=2), float(rng.normal()))
    x = rng.normal(size=2)
    y = f.predict(x)
    size_before = f.model_size
    w_before = f.weights.copy()
    out = f.step(x, y)
    assert out.error == 0.0
    # admission may still grow the dictionary; the active weights stay put
    assert np.array_equal(f.weights[:size_before], w_before)
    assert np.all(f.weights[size_before:] == 0.0)


# ---- the whole-stream core ------------------------------------------------

def smooth_stream(steps=2000, seed=4):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(steps, 2)) * 1.5
    targets = np.sin(inputs[:, 0]) * np.cos(inputs[:, 1]) + 0.1 * rng.normal(size=steps)
    return inputs, targets


STREAM_BANK = sample_feature_bank(RffSpec(0.95, 48, 2, seed=77))

# per kind: a stable filter, and ones whose state overflows mid-stream
# (the adaptive ones through the weights and through the bank)
MAKERS = {
    "rff": lambda: RffLms(STREAM_BANK, 0.05),
    "adaptive-rff": lambda: AdaptiveRffLms(STREAM_BANK, 0.05, 0.5, 0.5),
    "coherence-klms": lambda: CoherenceKlms(GaussianKernel(0.5), 0.5, 0.2, input_dim=2),
}
DIVERGENT = {
    "rff": lambda: RffLms(STREAM_BANK, 1.0),
    "adaptive-rff": lambda: AdaptiveRffLms(STREAM_BANK, 1.0, 0.5, 0.5),
    "adaptive-rff-bank": lambda: AdaptiveRffLms(STREAM_BANK, 0.3, 1e250, 1e250),
    "coherence-klms": lambda: CoherenceKlms(GaussianKernel(0.5), 0.5, 1e3, input_dim=2),
}


def filter_state(f):
    if isinstance(f, CoherenceKlms):
        return [f.weights, f.dictionary.centers]
    return [f.weights, f.bank.freqs, f.bank.phases]


def assert_same_state(a, b):
    assert a.n_steps == b.n_steps
    for x, y in zip(filter_state(a), filter_state(b), strict=True):
        assert x.shape == y.shape and np.array_equal(x, y)


def step_loop(f, inputs, targets):
    outcomes = [f.step(x, y) for x, y in zip(inputs, targets)]
    return (np.array([o.prediction for o in outcomes]),
            np.array([o.model_size for o in outcomes]))


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_run_matches_the_step_loop_bit_for_bit(kind):
    inputs, targets = smooth_stream()
    a, b = MAKERS[kind](), MAKERS[kind]()
    preds, sizes = a.run(inputs, targets)
    step_preds, step_sizes = step_loop(b, inputs, targets)
    assert preds.shape == sizes.shape == (2000,)
    assert np.array_equal(preds, step_preds)
    assert np.array_equal(sizes, step_sizes)
    assert_same_state(a, b)
    assert a.n_steps == 2000


@pytest.mark.parametrize("cuts", [(0,), (1,), (16,), (777,), (1999,), (2000,), (5, 40, 1500)])
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_run_split_anywhere_matches_one_run(kind, cuts):
    inputs, targets = smooth_stream()
    whole, pieces = MAKERS[kind](), MAKERS[kind]()
    preds, sizes = whole.run(inputs, targets)
    bounds = [0, *cuts, len(targets)]
    parts = [pieces.run(inputs[a:b], targets[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(preds, np.concatenate([p for p, _ in parts]))
    assert np.array_equal(sizes, np.concatenate([s for _, s in parts]))
    assert_same_state(whole, pieces)


def test_coherence_klms_run_matches_the_admit_then_kernelize_reference():
    # the run loop reuses the admission test's kernel vector and buffers
    # the dictionary; the reference recomputes one and appends to the other
    inputs, targets = smooth_stream()
    f = MAKERS["coherence-klms"]()
    preds, sizes = f.run(inputs, targets)
    ref_preds, ref_sizes, ref_weights, ref_centers = klms_reference(
        GaussianKernel(0.5), 0.5, 0.2, inputs, targets)
    assert sizes[-1] > 32  # the center and weight buffers grew twice
    assert np.array_equal(preds, ref_preds)
    assert np.array_equal(sizes, ref_sizes)
    assert np.array_equal(f.weights, ref_weights)
    assert np.array_equal(f.dictionary.centers, ref_centers)


@pytest.mark.parametrize("kind", sorted(DIVERGENT))
def test_divergence_step_is_global_across_run_split_run_and_step_loop(kind):
    inputs, targets = smooth_stream()
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as whole:
            DIVERGENT[kind]().run(inputs, targets)
        step = whole.value.step
        assert 1 < step < 2000
        # cut halfway, and just before the diverging step so that it is the
        # second call's first
        for cut in (step // 2, step - 1):
            f = DIVERGENT[kind]()
            f.run(inputs[:cut], targets[:cut])
            with pytest.raises(DivergenceError) as split:
                f.run(inputs[cut:], targets[cut:])
            assert split.value.step == step
        with pytest.raises(DivergenceError) as looped:
            step_loop(DIVERGENT[kind](), inputs, targets)
        assert looped.value.step == step


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_run_rejects_a_bad_stream_before_the_first_step(kind):
    inputs, targets = smooth_stream(steps=50)
    bad_last_input = inputs.copy()
    bad_last_input[-1, 1] = np.nan
    bad_last_target = targets.copy()
    bad_last_target[-1] = np.inf
    for bad in [(bad_last_input, targets), (inputs, bad_last_target),
                (np.zeros((50, 3)), targets), (inputs, targets[:-1]),
                (inputs[:, 0], targets), (inputs[None], targets)]:
        f = MAKERS[kind]()
        with pytest.raises(ValueError):
            f.run(*bad)
        assert f.n_steps == 0 and f.model_size == MAKERS[kind]().model_size
        assert not np.any(f.weights)


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_predict_rejects_a_bad_input_before_and_after_training(kind):
    # untrained, CoherenceKlms has no center to kernelize x against
    f = MAKERS[kind]()
    inputs, targets = smooth_stream(steps=50)
    for trained in (False, True):
        for bad in ("garbage", None, 0.0, [np.nan, 0.0], [0.0, np.inf],
                    np.zeros(3), np.zeros((1, 2))):
            with pytest.raises(ValueError):
                f.predict(bad)
        f.run(inputs, targets)
