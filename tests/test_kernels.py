import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_eval
from rfflms.kernels import (
    Dictionary,
    GaussianKernel,
    coherence_admit,
    kernelized_input,
)

# exp(-1 / (2 * 0.95**2)), scalar exponential oracle
KERNEL_AT_DIST1_BW095 = 0.5746370697554741
# admission distance for bandwidth 0.95, threshold 0.7:
# sqrt(-2 * 0.95**2 * ln 0.7), from inverting the kernel
ADMIT_DISTANCE = 0.8023704093555619

SIX_CENTERS = np.array([
    [0.17, -1.92], [-1.62, -0.18], [0.52, 1.55],
    [2.90, 1.92], [-2.01, -2.47], [2.66, -0.82],
])

finite2 = st.lists(st.floats(-100, 100), min_size=2, max_size=2).map(np.array)


def test_kernel_rejects_bad_bandwidth():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GaussianKernel(bad)


def test_self_similarity_is_one():
    k = GaussianKernel(0.4)
    for x in (np.zeros(2), np.array([3.0, -7.0]), np.array([1e3, 1e3])):
        assert kernel_eval(k, x, x) == 1.0


@settings(max_examples=50, deadline=None)
@given(x=finite2, x2=finite2)
def test_symmetry(x, x2):
    k = GaussianKernel(1.2)
    assert kernel_eval(k, x, x2) == kernel_eval(k, x2, x)


@settings(max_examples=50, deadline=None)
@given(x=finite2, x2=finite2, shift=finite2)
def test_shift_invariance(x, x2, shift):
    k = GaussianKernel(0.8)
    assert math.isclose(
        kernel_eval(k, x, x2), kernel_eval(k, x + shift, x2 + shift),
        rel_tol=1e-9, abs_tol=1e-12,
    )


def test_known_value_at_unit_distance():
    k = GaussianKernel(0.95)
    v = kernel_eval(k, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert math.isclose(v, KERNEL_AT_DIST1_BW095, rel_tol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        kernel_eval(GaussianKernel(1.0), np.zeros(2), np.zeros(3))


def test_kernelized_input_against_scalar_oracle():
    k = GaussianKernel(0.95)
    d = Dictionary(2)
    for c in SIX_CENTERS:
        d.append(c)
    x = np.array([0.17, -1.92])
    vec = kernelized_input(k, d, x)
    assert vec.shape == (6,)
    assert vec[0] == 1.0
    for j, c in enumerate(SIX_CENTERS):
        expected = math.exp(-float(np.sum((x - c) ** 2)) / (2.0 * 0.95**2))
        assert math.isclose(vec[j], expected, rel_tol=1e-12)
    assert np.all((vec > 0.0) & (vec <= 1.0))


def test_kernelized_input_empty_dictionary():
    with pytest.raises(ValueError):
        kernelized_input(GaussianKernel(1.0), Dictionary(2), np.zeros(2))


def test_admit_into_empty_dictionary():
    d = Dictionary(2)
    assert coherence_admit(GaussianKernel(1.0), d, np.array([1.0, 2.0]), 0.5)
    assert len(d) == 1


def test_reject_duplicate_center():
    d = Dictionary(2)
    x = np.array([0.3, -0.4])
    k = GaussianKernel(1.0)
    assert coherence_admit(k, d, x, 0.99)
    assert not coherence_admit(k, d, x, 0.99)
    assert len(d) == 1


def test_admission_distance_threshold():
    k = GaussianKernel(0.95)
    for offset, admitted in ((1e-6, True), (-1e-6, False)):
        d = Dictionary(2)
        d.append(np.zeros(2))
        x = np.array([ADMIT_DISTANCE + offset, 0.0])
        assert coherence_admit(k, d, x, 0.7) is admitted


def test_threshold_domain():
    d = Dictionary(2)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            coherence_admit(GaussianKernel(1.0), d, np.zeros(2), bad)


def test_capacity_caps_admissions():
    k = GaussianKernel(0.2)
    d = Dictionary(1, capacity=2)
    assert coherence_admit(k, d, np.array([0.0]), 0.5)
    assert coherence_admit(k, d, np.array([10.0]), 0.5)
    assert not coherence_admit(k, d, np.array([20.0]), 0.5)
    assert len(d) == 2
    with pytest.raises(ValueError):
        d.append(np.array([30.0]))


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(finite2, min_size=1, max_size=40),
    threshold=st.floats(0.05, 0.95),
)
def test_pairwise_coherence_bound(points, threshold):
    # after any admission sequence, distinct centers stay mutually dissimilar
    k = GaussianKernel(1.0)
    d = Dictionary(2)
    sizes = []
    for p in points:
        coherence_admit(k, d, p, threshold)
        sizes.append(len(d))
    assert sizes == sorted(sizes)  # growth is monotone
    c = d.centers
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            assert kernel_eval(k, c[i], c[j]) <= threshold + 1e-12
