import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LearningCurve, aggregate_runs, emse_curve, emse_sample
from rfflms.metrics import steady_state_emse, to_db

curve_values = st.lists(st.floats(0, 1e6), min_size=4, max_size=4)


def test_emse_sample():
    assert emse_sample(1.3, 1.3) == 0.0
    assert emse_sample(1.0, 0.0) == 1.0
    assert emse_sample(0.0, 1.0) == 1.0
    assert emse_sample(2.0, -1.0) == emse_sample(-1.0, 2.0) == 9.0


def test_zero_predictor_curve_is_clean_squared():
    clean = np.array([0.5, -2.0, 0.0, 3.0])
    curve = emse_curve(clean, np.zeros(4))
    assert np.array_equal(curve.values, clean**2)


def test_curve_validation():
    with pytest.raises(ValueError):
        LearningCurve(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        LearningCurve(np.array([1.0, np.inf]))
    assert LearningCurve(np.array([0.0, 2.0])).n_steps == 2


def test_aggregate_single_curve_is_identity():
    c = LearningCurve(np.array([1.0, 2.0, 3.0]))
    agg = aggregate_runs([c])
    assert np.array_equal(agg, c.values)
    assert agg.shape == (3,)


def test_aggregate_two_constant_curves():
    agg = aggregate_runs([
        LearningCurve(np.zeros(5)),
        LearningCurve(np.full(5, 2.0)),
    ])
    assert np.array_equal(agg, np.ones(5))
    assert agg.shape == (5,)


@settings(max_examples=40, deadline=None)
@given(curves=st.lists(curve_values, min_size=1, max_size=6), seed=st.integers(0, 99))
def test_aggregate_is_permutation_invariant(curves, seed):
    lcs = [LearningCurve(np.array(v)) for v in curves]
    shuffled = list(lcs)
    np.random.default_rng(seed).shuffle(shuffled)
    assert np.allclose(aggregate_runs(lcs), aggregate_runs(shuffled),
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(curves=st.lists(curve_values, min_size=1, max_size=5), scale=st.floats(0, 100))
def test_aggregate_is_linear_in_scaling(curves, scale):
    lcs = [LearningCurve(np.array(v)) for v in curves]
    scaled = [LearningCurve(np.array(v) * scale) for v in curves]
    assert np.allclose(aggregate_runs(scaled), scale * aggregate_runs(lcs),
                       rtol=1e-9, atol=1e-9)


def test_aggregate_rejects_ragged_lengths():
    with pytest.raises(ValueError):
        aggregate_runs([LearningCurve(np.zeros(3)), LearningCurve(np.zeros(4))])
    with pytest.raises(ValueError):
        aggregate_runs([])


def test_steady_state_of_constant_curve():
    agg = aggregate_runs([LearningCurve(np.full(10, 0.7))])
    for window in (1, 5, 10):
        assert steady_state_emse(agg, window) == pytest.approx(0.7)


def test_steady_state_window():
    agg = aggregate_runs([LearningCurve(np.array([1.0, 2.0, 3.0, 4.0]))])
    assert steady_state_emse(agg, 2) == 3.5
    assert steady_state_emse(agg, 4) == 2.5
    with pytest.raises(ValueError):
        steady_state_emse(agg, 5)
    with pytest.raises(ValueError):
        steady_state_emse(agg, 0)


def test_steady_state_of_nonincreasing_curve_is_below_start():
    values = np.linspace(5.0, 1.0, 50)
    agg = aggregate_runs([LearningCurve(values)])
    assert steady_state_emse(agg, 10) <= values[0]


def test_to_db():
    assert to_db(1.0) == 0.0
    assert to_db(0.1) == pytest.approx(-10.0)
    assert to_db(10.0 ** (-1.5)) == pytest.approx(-15.0)
    assert np.allclose(to_db(np.array([1.0, 100.0])), [0.0, 20.0])
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            to_db(bad)
    with pytest.raises(ValueError):
        to_db(np.array([1.0, 0.0]))


def test_to_db_refuses_nan():
    # NaN <= 0 is False, so only "all positive" refuses it
    with pytest.raises(ValueError, match="strictly positive"):
        to_db(float("nan"))
    with pytest.raises(ValueError, match="strictly positive"):
        to_db(np.array([1.0, np.nan]))
