import copy
import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (kernel_eval, klms_centers, klms_reference, klms_weights, loss, predict,
                     rff_reference, size_curves, step)
from rfflms import filters
from rfflms.config import list_presets, preset
from rfflms.features import sample_feature_bank
from rfflms.filters import AdaptiveRffLms, CoherenceKlms
from rfflms.metrics import steady_state_emse, to_db
from rfflms.runner import make_stream, run_experiment
from rfflms.seeding import derive_seed

F32 = np.float32
# float32's largest finite value and its smallest positive one (a subnormal)
F32_MAX = float(np.finfo(F32).max)
F32_TINY = float(np.finfo(F32).smallest_subnormal)

# hand-computed single step from weights=0, D=1, L=1, freq=1, phase=0,
# x=1, y=1, lr_weights=0.1, in float32: z=cos(1), e=1, weights ->
# (0.1*1)*cos(1); freq and phase unchanged because the pre-update weight is
# zero
ONE_STEP_WEIGHT = float((F32(0.1) * F32(1.0)) * np.cos(F32(1.0)))


# a bank is (freqs, phases); AdaptiveRffLms(*zip(*banks), ...) builds a
# filter of one run per bank, as the runner builds one spec's engine, and
# AdaptiveRffLms(*zip(bank), ...) one of a single run, which the step
# oracle steps one sample at a time through run
def scalar_bank(freq=1.0, phase=0.0):
    return np.array([[freq]]), np.array([phase])


def random_state(seed, n_features=8, input_dim=2):
    rng = np.random.default_rng(seed)
    bank = sample_feature_bank(1.0, n_features, input_dim, seed=int(rng.integers(2**31)))
    f = AdaptiveRffLms(*zip(bank), 0.1, 0.2, 0.3)
    f.weights[0] = rng.normal(size=n_features)
    return f, rng


def test_zero_weights_predict_zero():
    bank = sample_feature_bank(1.0, 6, 2, seed=1)
    f = AdaptiveRffLms(*zip(bank), 0.01, 0.01, 0.01)
    assert step(f, np.array([0.7, -2.0]), 1.0) == 0.0
    assert size_curves(f).tolist() == [[6]]


def test_predict_is_a_dot_product():
    # 2 * cos(acos(0.5)) in float32, the phase rounded to float32 first
    f = AdaptiveRffLms(*zip(scalar_bank(freq=0.0, phase=math.acos(0.5))), 0.1, 0.0, 0.0)
    f.weights[:] = 2.0
    assert step(f, np.array([123.0]), 0.0) == F32(2.0) * np.cos(F32(math.acos(0.5)))


def float64_state(f):
    """The float64 form of a filter's state, which ``predict`` and ``loss``
    evaluate in float64."""
    return SimpleNamespace(**{k: getattr(f, k).astype(float)
                              for k in ("freqs", "phases", "weights")})


def test_prediction_invariant_under_phase_wrap():
    # float32 cannot hold a phase shifted by 2 pi, so the invariance is
    # checked on the float64 form of the state, and the engine's prediction
    # from the wrapped float32 state against the float32 oracle
    f, rng = random_state(5)
    wrapped, _ = random_state(5)
    wrapped.phases[0, 3] += 2.0 * math.pi
    x = rng.normal(size=2)
    state, wrapped64 = float64_state(f), float64_state(f)
    wrapped64.phases[0, 3] += 2.0 * math.pi
    assert math.isclose(predict(wrapped64, x), predict(state, x), rel_tol=0, abs_tol=1e-12)
    expected = predict(wrapped, x)  # before the step updates the state
    assert step(wrapped, x, 0.0) == expected


def test_one_step_hand_oracle():
    f = AdaptiveRffLms(*zip(scalar_bank()), lr_weights=0.1, lr_freqs=1.0, lr_phases=1.0)
    assert step(f, np.array([1.0]), 1.0) == 0.0
    assert size_curves(f).tolist() == [[1]]
    assert f.weights[0, 0] == ONE_STEP_WEIGHT
    assert f.freqs[0, 0, 0] == 1.0
    assert f.phases[0, 0] == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_zero_error_is_a_fixed_point(seed):
    f, rng = random_state(seed)
    x = rng.normal(size=2)
    y = predict(f, x)
    w0, fr0, ph0 = f.weights.copy(), f.freqs.copy(), f.phases.copy()
    prediction = step(f, x, y)
    assert y - prediction == 0.0
    assert np.array_equal(f.weights, w0)
    assert np.array_equal(f.freqs, fr0)
    assert np.array_equal(f.phases, ph0)


def test_frozen_feature_updates_match_rff_bit_for_bit():
    # feature step sizes of one float32 subnormal make adapting runs, whose
    # bank updates then round away; zero ones make frozen runs, which skip them
    bank = sample_feature_bank(0.95, 48, 2, seed=77)
    arff = AdaptiveRffLms(*zip(bank), 0.01, F32_TINY, F32_TINY)
    rff = AdaptiveRffLms(*zip(bank), 0.01, 0.0, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        x = rng.normal(size=2)
        y = float(rng.normal())
        assert step(arff, x, y) == step(rff, x, y)
    assert np.array_equal(arff.weights, rff.weights)
    assert np.array_equal(arff.freqs, rff.freqs)
    assert np.array_equal(arff.phases, rff.phases)
    # and in one run call at R=3 over several time blocks: at D=48 a block is
    # _CHUNK // 144 = 455 steps, so 1500 steps span 4 blocks
    banks = [sample_feature_bank(0.95, 48, 2, seed=seed) for seed in (77, 78, 79)]
    streams = [smooth_stream(1500, seed=seed) for seed in (4, 5, 6)]
    inputs = np.stack([x for x, _ in streams])
    targets = np.stack([y for _, y in streams])
    assert inputs.shape[1] > 3 * (filters._CHUNK // (3 * 48))
    arff = AdaptiveRffLms(*zip(*banks), 0.01, F32_TINY, F32_TINY)
    rff = AdaptiveRffLms(*zip(*banks), 0.01, 0.0, 0.0)
    assert np.array_equal(arff.run(inputs, targets), rff.run(inputs, targets))
    assert np.array_equal(arff.weights, rff.weights)
    assert np.array_equal(arff.freqs, rff.freqs)
    assert np.array_equal(arff.phases, rff.phases)
    assert not arff.diverged_at.any()


def test_rff_first_step_from_zero_weights():
    bank = sample_feature_bank(1.0, 4, 2, seed=9)
    f = AdaptiveRffLms(*zip(bank), 0.05, 0.0, 0.0)
    x = np.array([0.2, -0.7])
    # in float32, as the filter computes
    freqs, phases = bank
    z = np.cos(freqs.astype(F32) @ x.astype(F32) + phases.astype(F32))
    assert step(f, x, 2.0) == 0.0
    assert size_curves(f).tolist() == [[4]]
    assert np.array_equal(f.weights[0], (F32(2.0) * F32(0.05)) * z)


def test_rff_zero_targets_keep_zero_state():
    bank = sample_feature_bank(1.0, 4, 2, seed=10)
    f = AdaptiveRffLms(*zip(bank), 0.5, 0.0, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        step(f, rng.normal(size=2), 0.0)
    assert np.array_equal(f.weights, np.zeros((1, 4)))


def test_rff_three_steps_match_scalar_recursion():
    # independent scalar LMS recursion on numpy float32 scalars
    freq, phase, lr = 0.8, 0.3, 0.2
    xs = [1.0, -0.5, 2.0]
    ys = [0.7, 0.1, -1.2]
    w = F32(0.0)
    for x, y in zip(xs, ys):
        z = np.cos(F32(freq) * F32(x) + F32(phase))
        e = F32(y) - w * z
        w = w + (e * F32(lr)) * z
    f = AdaptiveRffLms(*zip(scalar_bank(freq, phase)), lr, 0.0, 0.0)
    for x, y in zip(xs, ys):
        step(f, np.array([x]), y)
    assert f.weights[0, 0] == w


def test_error_equals_target_minus_prediction():
    f, rng = random_state(21)
    x = rng.normal(size=2)
    y = 1.7
    pred = predict(f, x)
    # the error is y - prediction, so step returns the pre-update prediction
    prediction = step(f, x, y)
    assert prediction == pred
    assert type(prediction) is float and size_curves(f).tolist() == [[8]]


def test_instantaneous_loss():
    # the squared step error, which the oracle loss of the gradient checks
    # reproduces without stepping
    f, rng = random_state(8)
    x = rng.normal(size=2)
    y = step(copy.deepcopy(f), x, 0.0)
    w0 = f.weights.copy()
    assert loss(f, x, y) == 0.0 and loss(f, x, 1.0) == (1.0 - y) ** 2
    assert np.array_equal(f.weights, w0)
    assert (y - step(f, x, y)) ** 2 == 0.0
    g = AdaptiveRffLms(f.freqs, f.phases, 0.1, 0.1, 0.1)  # zero weights
    assert (3.0 - step(g, x, 3.0)) ** 2 == 9.0


def test_update_directions_are_loss_gradients():
    # the step equals the float32 oracle's bit for bit, and the float64 form
    # of that step, with unit rates, matches central finite differences of
    # the float64 loss: delta = -(1/2) dL/d(param) evaluated pre-update
    rng = np.random.default_rng(44)
    h = 1e-6
    for _ in range(20):
        f, frng = random_state(int(rng.integers(2**31)))
        f.lr_weights = f.lr_freqs = f.lr_phases = 1.0
        x = frng.normal(size=2)
        y = float(frng.normal())

        ref = copy.deepcopy(f)
        step(f, x, y)
        _, *after = rff_reference(ref.freqs, ref.phases, ref.weights,
                                  1.0, 1.0, 1.0, x[None, None], [[y]])
        for a, b in zip(after, (f.weights, f.freqs, f.phases), strict=True):
            assert a.dtype == b.dtype == F32 and np.array_equal(a, b)

        ref = float64_state(ref)
        # the point the filter steps at: x and y rounded to float32
        x, y = x.astype(F32).astype(float), float(F32(y))

        def loss_at(dw=None, dfreq=None, dph=None):
            g = copy.deepcopy(ref)
            if dw is not None:
                g.weights[0] += dw
            if dfreq is not None:
                g.freqs[0] += dfreq
            if dph is not None:
                g.phases[0] += dph
            return loss(g, x, y)

        _, w, freqs, phases = rff_reference(ref.freqs, ref.phases, ref.weights,
                                            1.0, 1.0, 1.0, x[None, None], [[y]])
        d_w = (w - ref.weights)[0]
        d_freq = (freqs - ref.freqs)[0]
        d_ph = (phases - ref.phases)[0]

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
        step(f, np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        step(f, np.zeros(2), math.inf)
    with pytest.raises(ValueError):
        step(f, np.zeros(3), 1.0)


def test_divergence_shows_in_diverged_at_and_nan_predictions():
    # step raises nothing: from the diverging step on, its prediction is NaN,
    # as in run; the model size stays D
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    f = AdaptiveRffLms(*zip(bank), 1e30, 1e30, 1e30)
    rng = np.random.default_rng(0)
    preds = np.array([step(f, rng.normal(size=2), float(rng.normal())) for _ in range(50)])
    at = int(f.diverged_at[0])
    assert 1 <= at <= 50
    assert np.isfinite(preds[:at - 1]).all() and set(size_curves(f)[0, :at - 1]) <= {4}
    assert np.isnan(preds[at - 1:]).all() and f.model_size.tolist() == [4]


def test_negative_rates_rejected():
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    with pytest.raises(ValueError):
        AdaptiveRffLms(*zip(bank), -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        AdaptiveRffLms(*zip(bank), 0.1, -0.1, 0.0)
    with pytest.raises(ValueError):
        AdaptiveRffLms(*zip(bank), 0.1, 0.0, -0.1)
    with pytest.raises(ValueError):
        CoherenceKlms(1.0, 0.5, -0.1, 2)


@pytest.mark.parametrize("field", ["input_dim", "n_runs"])
def test_coherence_klms_needs_an_input_coordinate_and_a_run(field):
    sizes = {"input_dim": 2, "n_runs": 1, field: 0}
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        CoherenceKlms(1.0, 0.5, 0.1, **sizes)


def test_filters_do_not_alias_the_given_bank():
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    f = AdaptiveRffLms(*zip(bank), 0.1, 0.5, 0.5)
    f.weights[:] = 1.0
    step(f, np.ones(2), 5.0)
    fresh = sample_feature_bank(1.0, 4, 2, seed=0)
    assert np.array_equal(bank[0], fresh[0]) and np.array_equal(bank[1], fresh[1])


def test_klms_first_sample_is_admitted():
    f = CoherenceKlms(0.95, 0.7, 0.2, input_dim=2)
    assert step(f, np.array([0.3, 0.4]), 1.5) == 0.0
    assert size_curves(f).tolist() == [[1]] and f.admitted_at[0, :2].tolist() == [1, 0]
    assert math.isclose(klms_weights(f)[0], 0.2 * 1.5 * 1.0, rel_tol=1e-15)


def test_klms_repeated_input_never_grows_the_dictionary():
    f = CoherenceKlms(1.0, 0.9, 0.1, input_dim=2)
    x = np.array([1.0, -1.0])
    for _ in range(200):
        step(f, x, 0.5)
    assert set(size_curves(f)[0]) == {1}


def test_klms_weights_track_dictionary_size():
    f = CoherenceKlms(0.5, 0.5, 0.05, input_dim=2)
    rng = np.random.default_rng(12)
    for _ in range(300):
        step(f, rng.normal(size=2) * 2, float(rng.normal()))
        size = size_curves(f)[0, -1]
        assert len(klms_weights(f)) == size == len(klms_centers(f)) == f.model_size[0]
    c = klms_centers(f)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            assert kernel_eval(f.bandwidth, c[i], c[j]) <= 0.5 + 1e-12


def test_klms_zero_error_fixed_point():
    f = CoherenceKlms(1.0, 0.6, 0.1, input_dim=2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        step(f, rng.normal(size=2), float(rng.normal()))
    x = rng.normal(size=2)
    y = predict(f, x)
    size_before = int(f.model_size[0])
    w_before = klms_weights(f).copy()
    prediction = step(f, x, y)
    assert y - prediction == 0.0
    # admission may still grow the dictionary; the active weights stay put
    assert np.array_equal(klms_weights(f)[:size_before], w_before)
    assert np.all(klms_weights(f)[size_before:] == 0.0)


# ---- the whole-stream core ------------------------------------------------

def smooth_stream(steps=2000, seed=4):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(steps, 2)) * 1.5
    targets = np.sin(inputs[:, 0]) * np.cos(inputs[:, 1]) + 0.1 * rng.normal(size=steps)
    return inputs, targets


STREAM_BANK = sample_feature_bank(0.95, 48, 2, seed=77)

# per kind: a stable filter, and ones whose state overflows mid-stream
# (the adaptive ones through the weights and through the bank)
MAKERS = {
    "rff": lambda: AdaptiveRffLms(*zip(STREAM_BANK), 0.05, 0.0, 0.0),
    "adaptive-rff": lambda: AdaptiveRffLms(*zip(STREAM_BANK), 0.05, 0.5, 0.5),
    "coherence-klms": lambda: CoherenceKlms(0.5, 0.5, 0.2, input_dim=2),
}
DIVERGENT = {
    "rff": lambda: AdaptiveRffLms(*zip(STREAM_BANK), 1.0, 0.0, 0.0),
    "adaptive-rff": lambda: AdaptiveRffLms(*zip(STREAM_BANK), 1.0, 0.5, 0.5),
    "adaptive-rff-bank": lambda: AdaptiveRffLms(*zip(STREAM_BANK), 0.3, 1e38, 1e38),
    "coherence-klms": lambda: CoherenceKlms(0.5, 0.5, 1e3, input_dim=2),
}


def row_state(f, i):
    if isinstance(f, CoherenceKlms):
        return [klms_weights(f, i), klms_centers(f, i)]
    return [f.weights[i], f.freqs[i], f.phases[i]]


def assert_same_state(a, b):
    assert a.n_steps == b.n_steps
    for x, y in zip(row_state(a, 0), row_state(b, 0), strict=True):
        assert x.shape == y.shape and np.array_equal(x, y)


def step_loop(f, inputs, targets):
    """What ``f.run(inputs[None], targets[None])`` returns, one ``step`` at
    a time: (1, T) predictions."""
    return np.array([[step(f, x, y) for x, y in zip(inputs, targets)]])


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_run_matches_the_step_loop_bit_for_bit(kind):
    inputs, targets = smooth_stream()
    a, b = MAKERS[kind](), MAKERS[kind]()
    preds = a.run(inputs[None], targets[None])
    step_preds = step_loop(b, inputs, targets)
    assert preds.shape == step_preds.shape == size_curves(a).shape == (1, 2000)
    assert np.array_equal(preds, step_preds)
    assert np.array_equal(size_curves(a), size_curves(b))
    assert_same_state(a, b)
    assert a.n_steps == 2000


@pytest.mark.parametrize("cuts", [(0,), (1,), (16,), (777,), (1999,), (2000,), (5, 40, 1500)])
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_run_split_anywhere_matches_one_run(kind, cuts):
    inputs, targets = smooth_stream()
    whole, pieces = MAKERS[kind](), MAKERS[kind]()
    preds = whole.run(inputs[None], targets[None])
    bounds = [0, *cuts, len(targets)]
    parts = [pieces.run(inputs[None, a:b], targets[None, a:b])
             for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(preds, np.concatenate(parts, axis=1))
    assert np.array_equal(size_curves(whole), size_curves(pieces))
    assert_same_state(whole, pieces)


def test_coherence_klms_run_matches_the_admit_then_kernelize_reference():
    # the run loop reuses the admission test's kernel vector and buffers
    # the dictionary; the reference recomputes one and appends to the other
    inputs, targets = smooth_stream()
    f = MAKERS["coherence-klms"]()
    [preds] = f.run(inputs[None], targets[None])
    [sizes] = size_curves(f)
    ref_preds, ref_sizes, ref_weights, ref_centers = klms_reference(
        0.5, 0.5, 0.2, inputs, targets)
    assert sizes[-1] > 32  # the center and weight buffers grew twice
    assert np.array_equal(preds, ref_preds)
    assert np.array_equal(sizes, ref_sizes)
    assert np.array_equal(klms_weights(f), ref_weights)
    assert np.array_equal(klms_centers(f), ref_centers)


@pytest.mark.parametrize("kind", sorted(DIVERGENT))
def test_divergence_step_is_global_across_run_split_run_and_step_loop(kind):
    # diverged_at holds the step in all three, and the outputs agree
    inputs, targets = smooth_stream()
    whole = DIVERGENT[kind]()
    preds = whole.run(inputs[None], targets[None])
    at = int(whole.diverged_at[0])
    assert 1 < at < 2000
    # cut halfway, and just before the diverging step so that it is the
    # second call's first
    for cut in (at // 2, at - 1):
        f = DIVERGENT[kind]()
        f.run(inputs[None, :cut], targets[None, :cut])
        assert f.diverged_at[0] == 0
        f.run(inputs[None, cut:], targets[None, cut:])
        assert f.diverged_at[0] == at
    looped = DIVERGENT[kind]()
    step_preds = step_loop(looped, inputs, targets)
    assert looped.diverged_at[0] == at
    assert np.isnan(step_preds[0, at - 1:]).all()
    assert np.array_equal(step_preds, preds, equal_nan=True)
    assert np.array_equal(size_curves(looped), size_curves(whole), equal_nan=True)


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_run_rejects_a_bad_stream_before_the_first_step(kind):
    inputs, targets = smooth_stream(steps=50)
    inputs, targets = inputs[None], targets[None]
    bad_last_input = inputs.copy()
    bad_last_input[0, -1, 1] = np.nan
    bad_last_target = targets.copy()
    bad_last_target[0, -1] = np.inf
    # the last two: one run's stream without its run axis, and two runs'
    for bad in [(bad_last_input, targets), (inputs, bad_last_target),
                (np.zeros((1, 50, 3)), targets), (inputs, targets[:, :-1]),
                (inputs[..., 0], targets), (inputs[None], targets),
                (inputs[0], targets[0]), (inputs[[0, 0]], targets[[0, 0]])]:
        f = MAKERS[kind]()
        with pytest.raises(ValueError):
            f.run(*bad)
        assert f.n_steps == 0
        assert np.array_equal(f.model_size, MAKERS[kind]().model_size)
        assert not np.any(row_state(f, 0)[0])


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_predict_rejects_a_bad_input_before_and_after_training(kind):
    # untrained, CoherenceKlms has no center yet
    f = MAKERS[kind]()
    inputs, targets = smooth_stream(steps=50)
    for trained in (False, True):
        for bad in ("garbage", None, 0.0, [np.nan, 0.0], [0.0, np.inf],
                    np.zeros(3), np.zeros((1, 2))):
            with pytest.raises(ValueError):
                step(f, bad, 0.0)
        assert f.n_steps == 50 * trained
        f.run(inputs[None], targets[None])


# ---- the run-batched core -------------------------------------------------

BIG = 1.7e308  # past half the float64 range, for the float64 coherence-klms
BIG32 = 3e38  # past half the float32 range, for the float32 RFF engine
ZERO_BANK = np.zeros((48, 2)), np.zeros(48)  # every feature is 1
ROWS = 4


def batch_rows(kind):
    """Four runs of one kind, as (inputs, targets, bank) each: two stable
    ones, one whose update overflows its state at step 2, so that it
    diverges at step 3, its first non-finite prediction, and one whose
    prediction overflows at step 61 from a still finite state (the rare
    path, where the prediction breaks before the state). The
    ``coherence-klms`` run that diverges at step 3 goes on to admit every
    later input, so its batch doubles buffers that the live runs do not
    need."""
    x0, y0 = smooth_stream(200, seed=4)
    x3, y3 = smooth_stream(200, seed=5)
    y1, y2 = np.zeros(200), np.zeros(200)
    if kind == "coherence-klms":
        # fit two centers at the edge of the coherence test to BIG, then
        # query their midpoint: the two kernel values sum past the float range
        x1 = np.zeros((200, 2))
        y1[:2] = BIG, -BIG
        x1[2:, 0] = 3.0 * np.arange(198)  # far apart: each one is admitted
        x2 = np.array([[0.0, 0.0], [0.6, 0.0]] * 30 + [[0.3, 0.0]] * 140)
        y2[:60] = BIG
        banks = [None] * ROWS
    else:
        # with every feature 1 the prediction is the sum of the 48 weights:
        # 48 * (0.05 * 6e37) = 1.44e38 at step 2, whose error overflows
        # float32, and 48 * (0.05 * BIG32) = 7.2e38 at step 61
        x1, x2 = x0, x0
        y1[:2] = 6e37, -BIG32
        y2[59] = BIG32
        banks = [STREAM_BANK, ZERO_BANK, ZERO_BANK, STREAM_BANK]
    return [(x0, y0, banks[0]), (x1, y1, banks[1]), (x2, y2, banks[2]), (x3, y3, banks[3])]


def make_filter(kind, banks):
    if kind == "coherence-klms":
        return CoherenceKlms(0.5, 0.5, 0.2, input_dim=2, n_runs=len(banks))
    if kind == "rff":
        return AdaptiveRffLms(*zip(*banks), 0.05, 0.0, 0.0)
    return AdaptiveRffLms(*zip(*banks), 0.05, 0.5, 0.5)


def run_rows(kind, subset, cuts=()):
    rows = [batch_rows(kind)[r] for r in subset]
    f = make_filter(kind, [bank for _, _, bank in rows])
    inputs = np.stack([x for x, _, _ in rows])
    targets = np.stack([y for _, y, _ in rows])
    bounds = [0, *cuts, targets.shape[1]]
    parts = [f.run(inputs[:, a:b], targets[:, a:b]) for a, b in zip(bounds, bounds[1:])]
    return f, np.concatenate(parts, axis=1), size_curves(f)


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_batched_run_flags_each_row_at_the_step_its_step_loop_flags(kind):
    f, preds, sizes = run_rows(kind, range(ROWS))
    assert preds.shape == sizes.shape == (ROWS, 200)
    assert list(f.diverged_at) == [0, 3, 61, 0]
    if kind == "coherence-klms":
        # the diverged run kept admitting centers, past the 64 slots the
        # live runs need
        assert f.model_size[1] > 64 >= max(f.model_size[0], f.model_size[3])
    for r, (x, y, bank) in enumerate(batch_rows(kind)):
        at = int(f.diverged_at[r])
        alone = make_filter(kind, [bank])
        step_preds = step_loop(alone, x, y)
        assert alone.diverged_at[0] == at
        assert np.array_equal(preds[r], step_preds[0], equal_nan=True)
        assert np.array_equal(sizes[r], size_curves(alone)[0], equal_nan=True)
        if at == 0:
            for a, b in zip(row_state(f, r), row_state(alone, 0), strict=True):
                assert np.array_equal(a, b)
            continue
        before = make_filter(kind, [bank])
        assert np.array_equal(preds[r, :at - 1],
                              before.run(x[None, :at - 1], y[None, :at - 1])[0])
        assert np.all(np.isnan(preds[r, at - 1:]))
        if at == 61:
            # the rare path: the state before the step is finite, its
            # prediction is not
            assert all(np.isfinite(a).all() for a in row_state(before, 0))
            with np.errstate(all="ignore"):
                assert not np.isfinite(predict(before, x[at - 1]))


@pytest.mark.parametrize("subset", [(0,), (2,), (3, 1), (1, 2, 3), (0, 3), (2, 0, 1)])
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_a_runs_bytes_do_not_depend_on_which_runs_share_its_batch(kind, subset):
    full, preds, sizes = run_rows(kind, range(ROWS))
    f, sub_preds, sub_sizes = run_rows(kind, subset)
    assert np.array_equal(sub_preds, preds[list(subset)], equal_nan=True)
    assert np.array_equal(sub_sizes, sizes[list(subset)], equal_nan=True)
    assert np.array_equal(f.diverged_at, full.diverged_at[list(subset)])
    # a diverged run's state is not defined: alone, run 2 stops stepping at
    # its divergence; beside live runs it is stepped on
    for i, r in enumerate(subset):
        if full.diverged_at[r] == 0:
            for a, b in zip(row_state(f, i), row_state(full, r), strict=True):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("cuts", [(1,), (2,), (60,), (61,), (5, 61, 150)])
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_batched_run_split_anywhere_matches_one_call(kind, cuts):
    whole, preds, sizes = run_rows(kind, range(ROWS))
    pieces, piece_preds, piece_sizes = run_rows(kind, range(ROWS), cuts)
    assert np.array_equal(piece_preds, preds, equal_nan=True)
    assert np.array_equal(piece_sizes, sizes, equal_nan=True)
    assert np.array_equal(pieces.diverged_at, whole.diverged_at)
    assert pieces.n_steps == whole.n_steps == 200


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_a_batch_stops_stepping_once_every_run_has_diverged(kind, monkeypatch):
    full, full_preds, full_sizes = run_rows(kind, range(ROWS))
    # one-step chunks: steps 1 to 61, each once, then no further
    monkeypatch.setattr(filters, "_CHUNK", 0)
    monkeypatch.setattr(filters, "_MIN_CHUNK", 1)
    cls = CoherenceKlms if kind == "coherence-klms" else AdaptiveRffLms
    steps, given = cls._steps, []

    def counted(self, xs, *rest):
        given.append(len(xs))
        steps(self, xs, *rest)

    monkeypatch.setattr(cls, "_steps", counted)
    f, preds, sizes = run_rows(kind, (1, 2))
    assert list(f.diverged_at) == [3, 61] and sum(given) == 61
    assert np.array_equal(preds, full_preds[1:3], equal_nan=True)
    assert np.array_equal(sizes, full_sizes[1:3], equal_nan=True)
    # a later call takes no step at all
    given.clear()
    x, y, _ = batch_rows(kind)[0]
    more_preds = f.run(np.stack([x, x]), np.stack([y, y]))
    assert given == [] and f.n_steps == 400 and list(f.diverged_at) == [3, 61]
    assert np.isnan(more_preds).all()


@pytest.mark.parametrize("block", [2, 5, 32])
def test_coherence_klms_block_length_changes_no_bit(block, monkeypatch):
    # one run admits every input from step 3 on, so buffers double mid-block
    monkeypatch.setattr(filters, "_BLOCK", 1)
    single, preds, sizes = run_rows("coherence-klms", range(ROWS))
    monkeypatch.setattr(filters, "_BLOCK", block)
    f, block_preds, block_sizes = run_rows("coherence-klms", range(ROWS))
    assert np.array_equal(block_preds, preds, equal_nan=True)
    assert np.array_equal(block_sizes, sizes, equal_nan=True)
    assert np.array_equal(f.diverged_at, single.diverged_at)
    for r in np.flatnonzero(single.diverged_at == 0):
        for a, b in zip(row_state(f, r), row_state(single, r), strict=True):
            assert np.array_equal(a, b)


def test_coherence_klms_admissions_on_a_blocks_first_and_last_step(monkeypatch):
    # blocks of 5 steps; an input far from the others is admitted, a repeat
    # of the last admitted one is not
    monkeypatch.setattr(filters, "_BLOCK", 5)
    admitted = [{0, 4, 5, 9, 14, 19}, {0, 2, 10, 12, 15}]
    inputs = np.zeros((2, 20, 2))
    for r, steps in enumerate(admitted):
        for t in range(20):
            inputs[r, t, 0] = 3.0 * t if t in steps else inputs[r, t - 1, 0]
    targets = np.sin(np.arange(40.0)).reshape(2, 20)
    f = CoherenceKlms(0.5, 0.5, 0.2, input_dim=2, n_runs=2)
    preds = f.run(inputs, targets)
    sizes = size_curves(f)
    for r, steps in enumerate(admitted):
        assert np.flatnonzero(np.diff(sizes[r], prepend=0)).tolist() == sorted(steps)
        ref_preds, ref_sizes, ref_weights, ref_centers = klms_reference(
            0.5, 0.5, 0.2, inputs[r], targets[r])
        assert np.array_equal(preds[r], ref_preds)
        assert np.array_equal(sizes[r], ref_sizes)
        assert np.array_equal(klms_weights(f, r), ref_weights)
        assert np.array_equal(klms_centers(f, r), ref_centers)


@pytest.mark.parametrize(("admissions", "ends"), [
    (16, [(16, 16)]), (17, [(17, 32)]), (40, [(32, 32), (40, 64)])])
def test_coherence_klms_capacity_is_the_least_power_of_two_that_holds_each_block(
        admissions, ends, monkeypatch):
    # inputs 3 apart at bandwidth 0.5 all admit, from an empty dictionary of
    # capacity 16; 40 steps make blocks of 32 and 8
    monkeypatch.setattr(filters, "_BLOCK", 32)
    inputs = np.zeros((1, admissions, 2))
    inputs[0, :, 0] = 3.0 * np.arange(admissions)
    f = CoherenceKlms(0.5, 0.5, 0.2, input_dim=2)
    steps, given = f._steps, []

    def recorded(*args):  # (dictionary size, capacity) after each block
        steps(*args)
        given.append((int(f.model_size[0]), f._weights.shape[1]))

    f._steps = recorded
    f.run(inputs, np.sin(np.arange(admissions, dtype=float))[None])
    assert size_curves(f)[0].tolist() == list(range(1, admissions + 1))
    assert given == ends
    assert f._centers.shape == (1, 2, ends[-1][1])
    assert f.admitted_at.shape == (1, ends[-1][1])


def test_coherence_klms_live_columns_where_runs_differ():
    # one run repeats one point and keeps 1 center, the other spreads past
    # 16 centers, so the batch doubles its capacity while the first run's
    # live columns stay far fewer than the block's widest
    inputs, targets = smooth_stream()
    inputs = np.stack([np.broadcast_to(inputs[0], inputs.shape), inputs])
    targets = np.stack([targets, targets])
    f = CoherenceKlms(0.5, 0.5, 0.2, input_dim=inputs.shape[2], n_runs=2)
    preds = f.run(inputs, targets)
    sizes = size_curves(f)
    assert sizes[0, -1] == 1 and sizes[1, -1] > 16
    for r in range(2):
        ref_preds, ref_sizes, ref_weights, ref_centers = klms_reference(
            0.5, 0.5, 0.2, inputs[r], targets[r])
        assert np.array_equal(preds[r], ref_preds)
        assert np.array_equal(sizes[r], ref_sizes)
        assert np.array_equal(klms_weights(f, r), ref_weights)
        assert np.array_equal(klms_centers(f, r), ref_centers)


# per-row step sizes (lr_weights, lr_freqs, lr_phases) over batch_rows("rff"):
# in the mixed engine two adapting rows lead two frozen ones, and at least
# one row of each engine diverges
PER_ROW_RATES = {
    "frozen": [(0.05, 0.0, 0.0), (0.05, 0.0, 0.0), (0.02, 0.0, 0.0), (0.03, 0.0, 0.0)],
    "mixed": [(0.05, 0.5, 0.5), (0.05, 0.3, 0.0), (0.02, 0.0, 0.0), (0.05, 0.0, 0.0)],
}


@pytest.mark.parametrize("engine", sorted(PER_ROW_RATES))
def test_per_row_step_sizes_give_each_row_its_scalar_filters_bits(engine):
    rows, rates = batch_rows("rff"), PER_ROW_RATES[engine]
    f = AdaptiveRffLms(*zip(*(bank for _, _, bank in rows)), *zip(*rates))
    preds = f.run(np.stack([x for x, _, _ in rows]), np.stack([y for _, y, _ in rows]))
    assert f.diverged_at.any() and not f.diverged_at.all()
    for r, ((x, y, bank), rate) in enumerate(zip(rows, rates, strict=True)):
        alone = AdaptiveRffLms(*zip(bank), *rate)
        alone_preds = alone.run(x[None], y[None])
        assert np.array_equal(preds[r], alone_preds[0], equal_nan=True)
        assert np.array_equal(size_curves(f)[r], size_curves(alone)[0], equal_nan=True)
        assert f.diverged_at[r] == alone.diverged_at[0]
        if not f.diverged_at[r]:
            for a, b in zip(row_state(f, r), row_state(alone, 0), strict=True):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["lr_weights", "lr_freqs", "lr_phases"])
def test_per_row_rates_that_float32_cannot_hold_or_miscount_the_rows_are_refused(name):
    banks = [sample_feature_bank(1.0, 4, 2, seed=s) for s in range(3)]
    rates = {"lr_weights": 0.1, "lr_freqs": 0.1, "lr_phases": 0.1}
    for value in (1e39, F32_TINY / 2):
        with pytest.raises(ValueError, match=fr"{name}\[1\] must be 0 or within float32"):
            AdaptiveRffLms(*zip(*banks), **{**rates, name: [0.1, value, 0.1]})
    # a wrong length, or one value per run in a 2-D array
    for values in ([0.1, 0.1], [0.1] * 4, np.full((3, 1), 0.1)):
        with pytest.raises(ValueError, match=f"{name} must be a scalar or one value per run"):
            AdaptiveRffLms(*zip(*banks), **{**rates, name: values})
    held = AdaptiveRffLms(*zip(*banks), **{**rates, name: [F32_TINY, 0.1, F32_MAX]})
    assert getattr(held, name).tolist() == [F32_TINY, 0.1, F32_MAX]


def test_a_frozen_row_before_an_adapting_one_is_refused():
    banks = [sample_feature_bank(1.0, 4, 2, seed=s) for s in range(3)]
    for lr_freqs, lr_phases in [([0.0, 0.1, 0.1], 0.0), ([0.1, 0.0, 0.0], [0.1, 0.0, 0.1])]:
        with pytest.raises(ValueError, match="must follow every other run"):
            AdaptiveRffLms(*zip(*banks), 0.1, lr_freqs, lr_phases)
    # adapting rows first, by either feature step size
    AdaptiveRffLms(*zip(*banks), 0.1, [0.1, 0.0, 0.0], [0.0, 0.1, 0.0])


# (lr_weights, lr_freqs, lr_phases) of an adapting, a frozen and a frozen
# group that diverges on every run
GROUP_RATES = [(0.05, 0.5, 0.5), (0.05, 0.0, 0.0), (1.0, 0.0, 0.0)]


def test_row_groups_over_shared_streams_give_each_groups_filter_its_bits():
    # two streams, read by three groups of two rows each
    rows = batch_rows("rff")
    banks = [rows[0][2], rows[3][2]]
    inputs = np.stack([rows[0][0], rows[3][0]])
    targets = np.stack([rows[0][1], rows[3][1]])
    engine = AdaptiveRffLms(*zip(*(3 * banks)), *np.repeat(GROUP_RATES, 2, axis=0).T,
                            n_streams=2)
    assert engine.n_runs == 6 and engine.n_streams == 2
    preds = engine.run(inputs, targets)
    sizes = size_curves(engine)
    assert engine.diverged_at[4:].all() and not engine.diverged_at[:4].any()
    for i, rates in enumerate(GROUP_RATES):
        alone = AdaptiveRffLms(*zip(*banks), *rates)
        alone_preds = alone.run(inputs, targets)
        assert np.array_equal(preds[2 * i:2 * i + 2], alone_preds, equal_nan=True)
        assert np.array_equal(sizes[2 * i:2 * i + 2], size_curves(alone), equal_nan=True)
        assert np.array_equal(engine.diverged_at[2 * i:2 * i + 2], alone.diverged_at)
        if i < 2:
            for r in range(2):
                for a, b in zip(row_state(engine, 2 * i + r), row_state(alone, r), strict=True):
                    assert np.array_equal(a, b)


def test_an_n_streams_that_does_not_divide_the_rows_is_refused():
    banks = 6 * [sample_feature_bank(1.0, 4, 2, seed=0)]
    for n_streams in (0, 4):
        with pytest.raises(ValueError, match=f"n_streams must be >= 1 and divide the 6 "
                                             f"runs, got {n_streams}"):
            AdaptiveRffLms(*zip(*banks), 0.1, 0.0, 0.0, n_streams=n_streams)
    for n_streams in (1, 2, 3, 6):
        f = AdaptiveRffLms(*zip(*banks), 0.1, 0.0, 0.0, n_streams=n_streams)
        assert (f.n_runs, f.n_streams) == (6, n_streams)


def test_run_takes_n_streams_streams():
    banks = 6 * [sample_feature_bank(1.0, 4, 2, seed=0)]
    f = AdaptiveRffLms(*zip(*banks), 0.1, 0.0, 0.0, n_streams=2)
    for given in (1, 3, 6):  # fewer, neither, and one per row
        with pytest.raises(ValueError, match=r"expected inputs of shape \(2, T, 2\)"):
            f.run(np.zeros((given, 5, 2)), np.zeros((given, 5)))
    assert f.n_steps == 0
    assert f.run(np.zeros((2, 5, 2)), np.zeros((2, 5))).shape == (6, 5)


def test_batched_filters_take_streams_only():
    f = make_filter("rff", [STREAM_BANK, STREAM_BANK])
    inputs, targets = smooth_stream(steps=10)
    with pytest.raises(ValueError):
        f.run(inputs, targets)  # a single run's stream
    with pytest.raises(ValueError):
        f.run(inputs[None], targets[None])  # one of the two runs' streams
    assert f.n_steps == 0


@pytest.mark.parametrize("chunk", [1, 7, 60])
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_time_chunk_length_changes_no_bit(kind, chunk, monkeypatch):
    # divergences then fall in later blocks, and in the first step of one
    whole, preds, sizes = run_rows(kind, range(ROWS))
    if kind == "coherence-klms":  # its blocks take _BLOCK steps at these capacities
        monkeypatch.setattr(filters, "_BLOCK", chunk)
    else:
        monkeypatch.setattr(filters, "_CHUNK", 0)
        monkeypatch.setattr(filters, "_MIN_CHUNK", chunk)
    f, chunked_preds, chunked_sizes = run_rows(kind, range(ROWS))
    assert np.array_equal(chunked_preds, preds, equal_nan=True)
    assert np.array_equal(chunked_sizes, sizes, equal_nan=True)
    assert np.array_equal(f.diverged_at, whole.diverged_at)
    for r in range(ROWS):
        for a, b in zip(row_state(f, r), row_state(whole, r), strict=True):
            assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("rates", [[1e-3], [0.0], [1e-3, 0.0]],
                         ids=["adapting", "frozen", "mixed"])
def test_no_engine_holds_a_block_of_cosines(rates):
    # runs of D 4096 step in blocks of 64, whose cosines would take 64 * 4096
    # float32, 1 MiB, a run; one per-step (R, D) buffer is 16 KiB a run
    bank = sample_feature_bank(1.0, 4096, 2, seed=0)
    f = AdaptiveRffLms(*zip(*[bank] * len(rates)), 1e-3, rates, rates, n_streams=1)
    inputs, targets = smooth_stream(steps=64)
    assert f._block_length() == 64
    tracemalloc.start()
    try:
        f.run(inputs[None], targets[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not f.diverged_at.any() and peak < 64 * 4096 * 4


# ---- the float32 RFF engine ------------------------------------------------

@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_state_dtype_and_run_output_contract(kind):
    # the RFF kinds hold float32 state and coherence-klms float64; run
    # returns one float64 (R, T) array, and the step oracle a Python float
    # from it. The model
    # size is state: D for an RFF run, and a coherence-klms run's count of
    # admissions, each at a step the filter has taken, after every call of
    # any split of the stream
    inputs, targets = smooth_stream(steps=50)
    dtype = np.float64 if kind == "coherence-klms" else F32
    for cuts in [(), (1,), (17, 33)]:
        f = MAKERS[kind]()
        bounds = [0, *cuts, 50]
        for a, b in zip(bounds, bounds[1:]):
            preds = f.run(inputs[None, a:b], targets[None, a:b])
            assert type(preds) is np.ndarray
            assert preds.dtype == np.float64 and preds.shape == (1, b - a)
            if kind == "coherence-klms":
                assert f.admitted_at.dtype.kind == "i" and f.admitted_at.max() <= f.n_steps == b
                assert ((f.admitted_at > 0).sum(axis=1) == f.model_size).all()
            else:
                assert f.model_size.tolist() == [48]
        assert {a.dtype for a in row_state(f, 0)} == {np.dtype(dtype)}
        assert type(step(f, inputs[0], targets[0])) is float


@pytest.mark.parametrize("value", [1e39, -1e39, F32_MAX * 1.0000001])
def test_rff_run_rejects_a_stream_value_beyond_float32(value):
    # finite in float64 but not in float32: refused before the first step,
    # where a cast would flag the run as diverged inside the stream
    inputs, targets = smooth_stream(steps=50)
    bad_input, bad_target = inputs.copy(), targets.copy()
    bad_input[7, 0] = value
    bad_target[7] = value
    for kind in ("rff", "adaptive-rff"):
        for bad in [(bad_input, targets), (inputs, bad_target)]:
            f = MAKERS[kind]()
            with pytest.raises(ValueError, match="float32"):
                f.run(bad[0][None], bad[1][None])
            assert f.n_steps == 0 and not f.diverged_at.any()
    # coherence-klms computes in float64, where the value is finite
    f = MAKERS["coherence-klms"]()
    f.run(inputs[None], bad_target[None])
    assert f.n_steps == 50


def test_a_bank_beyond_float32_is_refused():
    good = sample_feature_bank(1.0, 4, 2, seed=0)
    for bank in [(np.full((4, 2), 1e39), good[1]), (good[0], np.full(4, -1e39))]:
        with pytest.raises(ValueError, match="float32"):
            AdaptiveRffLms(*zip(good, bank), 0.1, 0.1, 0.1)
    # float32's largest value is held
    edge = np.full((4, 2), F32_MAX), good[1]
    assert AdaptiveRffLms(*zip(edge), 0.1, 0.0, 0.0).freqs.max() == F32_MAX


@pytest.mark.parametrize("name", ["lr_weights", "lr_freqs", "lr_phases"])
def test_rff_rates_that_float32_cannot_hold_are_refused(name):
    bank = sample_feature_bank(1.0, 4, 2, seed=0)
    rates = {"lr_weights": 0.1, "lr_freqs": 0.1, "lr_phases": 0.1}
    for value in (1e39, F32_TINY / 2, 5e-324):
        with pytest.raises(ValueError, match=f"{name} .*float32"):
            AdaptiveRffLms(*zip(bank), **{**rates, name: value})
    for value in (0.0, F32_TINY, F32_MAX):
        assert getattr(AdaptiveRffLms(*zip(bank), **{**rates, name: value}), name) == value
    # coherence-klms's float64 step size has no float32 bound
    assert CoherenceKlms(1.0, 0.5, 1e39, 2).lr_weights == 1e39


@pytest.mark.parametrize("name", list_presets())
def test_float32_engine_agrees_with_the_float64_oracle_at_steady_state(name):
    # 4 runs of the preset at full horizon: each RFF filter's steady-state
    # EMSE in dB, float32 engine against the float64 form of its loop
    cfg = dataclasses.replace(preset(name), runs=4)
    summary = run_experiment(cfg).summary()
    streams = [make_stream(cfg, derive_seed(cfg.seed, r, "stream")) for r in range(cfg.runs)]
    inputs, targets, clean = (np.stack(a) for a in zip(*streams))
    for spec in cfg.filters:
        if spec.kind == "coherence-klms":
            continue  # float64 in both
        banks = [sample_feature_bank(spec.bandwidth, spec.n_features, 2,
                                     derive_seed(cfg.seed, r, "bank")) for r in range(cfg.runs)]
        freqs, phases = (np.stack(a) for a in zip(*banks))
        preds, *_ = rff_reference(freqs, phases, np.zeros(phases.shape), spec.lr_weights,
                                  spec.lr_freqs, spec.lr_phases, inputs, targets)
        emse = np.mean((clean - preds) ** 2, axis=0)
        oracle_db = to_db(steady_state_emse(emse, cfg.steady_window))
        assert summary[spec.column]["runs_used"] == cfg.runs
        assert abs(summary[spec.column]["steady_state_emse_db"] - oracle_db) < 0.01
