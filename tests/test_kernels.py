import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_eval
from rfflms.filters import CoherenceKlms
from rfflms.kernels import coherence_admit, kernel_rows, kernelized_input

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
    d = []
    d.append(np.zeros(2))
    # 2 * bandwidth**2 underflows to 0 at 1e-163 and overflows at 1e200
    for bad in (0.0, -1.0, float("nan"), float("inf"), 1e-163, 1e200):
        with pytest.raises(ValueError, match="bandwidth"):
            CoherenceKlms(bad, 0.5, 0.1, input_dim=2)
        with pytest.raises(ValueError, match="bandwidth"):
            kernelized_input(bad, d, np.zeros(2))
        with pytest.raises(ValueError, match="bandwidth"):
            coherence_admit(bad, d, np.ones(2), 0.5)
    assert len(d) == 1


def test_self_similarity_is_one():
    bandwidth = 0.4
    for x in (np.zeros(2), np.array([3.0, -7.0]), np.array([1e3, 1e3])):
        assert kernel_eval(bandwidth, x, x) == 1.0


@settings(max_examples=50, deadline=None)
@given(x=finite2, x2=finite2)
def test_symmetry(x, x2):
    bandwidth = 1.2
    assert kernel_eval(bandwidth, x, x2) == kernel_eval(bandwidth, x2, x)


@settings(max_examples=50, deadline=None)
@given(x=finite2, x2=finite2, shift=finite2)
def test_shift_invariance(x, x2, shift):
    bandwidth = 0.8
    assert math.isclose(
        kernel_eval(bandwidth, x, x2), kernel_eval(bandwidth, x + shift, x2 + shift),
        rel_tol=1e-9, abs_tol=1e-12,
    )


def test_known_value_at_unit_distance():
    bandwidth = 0.95
    v = kernel_eval(bandwidth, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert math.isclose(v, KERNEL_AT_DIST1_BW095, rel_tol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        kernel_eval(1.0, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match=r"input of shape \(2,\), got \(3,\)"):
        kernelized_input(1.0, np.zeros((4, 2)), np.zeros(3))


def test_kernelized_input_against_scalar_oracle():
    bandwidth = 0.95
    d = []
    for c in SIX_CENTERS:
        d.append(c)
    x = np.array([0.17, -1.92])
    vec = kernelized_input(bandwidth, d, x)
    assert vec.shape == (6,)
    assert vec[0] == 1.0
    for j, c in enumerate(SIX_CENTERS):
        expected = math.exp(-float(np.sum((x - c) ** 2)) / (2.0 * 0.95**2))
        assert math.isclose(vec[j], expected, rel_tol=1e-12)
    assert np.all((vec > 0.0) & (vec <= 1.0))


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# kernel_rows's callers: the stationary plant ((n, L) inputs against (L, C)
# centers), CoherenceKlms's block rows ((n, R, L) against (R, L, C)) and an
# admission's column ((n, R, L) against (R, L, 1))
@pytest.mark.parametrize("centers_shape, xs_shape", [
    ((2, 6), (7, 2)), ((3, 2, 5), (4, 3, 2)), ((3, 2, 1), (4, 3, 2)),
], ids=["plant", "engine", "column"])
def test_kernel_rows_keep_their_bits_however_they_are_called(centers_shape, xs_shape):
    rng = np.random.default_rng(11)
    bandwidth = 0.95
    centers = 1.5 * rng.standard_normal(centers_shape)
    xs = 1.5 * rng.standard_normal(xs_shape)
    rows = kernel_rows(centers, xs, bandwidth)
    width = centers.shape[-1]
    assert rows.shape == (*xs.shape[:-1], width)
    # an input's run indexes the centers' leading axes, if any
    n_run_axes = centers.ndim - 2
    for index in np.ndindex(xs.shape[:-1]):
        run = centers[index[len(index) - n_run_axes:]]
        assert same_bits(kernel_rows(run, xs[index], bandwidth), rows[index])
        np.testing.assert_allclose(rows[index], kernelized_input(bandwidth, run.T, xs[index]),
                                   rtol=0, atol=1e-12)
    for c in range(width):
        assert same_bits(kernel_rows(centers[..., c:c + 1], xs, bandwidth)[..., 0],
                         rows[..., c])
    subset = [0, 2]
    if n_run_axes:
        assert same_bits(kernel_rows(centers[subset], xs[:, subset], bandwidth),
                         rows[:, subset])
    else:
        assert same_bits(kernel_rows(centers, xs[subset], bandwidth), rows[subset])
    padding = np.full((*centers.shape[:-1], 3), np.inf)
    padded = kernel_rows(np.concatenate([centers, padding], axis=-1), xs, bandwidth)
    assert same_bits(padded[..., :width], rows)
    assert (padded[..., width:] == 0.0).all()


def test_kernelized_input_empty_dictionary():
    with pytest.raises(ValueError):
        kernelized_input(1.0, [], np.zeros(2))


def test_admit_into_empty_dictionary():
    d = []
    assert coherence_admit(1.0, d, np.array([1.0, 2.0]), 0.5)
    assert len(d) == 1


def test_reject_duplicate_center():
    d = []
    x = np.array([0.3, -0.4])
    bandwidth = 1.0
    assert coherence_admit(bandwidth, d, x, 0.99)
    assert not coherence_admit(bandwidth, d, x, 0.99)
    assert len(d) == 1


def test_admission_distance_threshold():
    bandwidth = 0.95
    for offset, admitted in ((1e-6, True), (-1e-6, False)):
        d = []
        d.append(np.zeros(2))
        x = np.array([ADMIT_DISTANCE + offset, 0.0])
        assert coherence_admit(bandwidth, d, x, 0.7) is admitted


def test_threshold_domain():
    d = []
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="coherence_threshold"):
            coherence_admit(1.0, d, np.zeros(2), bad)
        with pytest.raises(ValueError, match="coherence_threshold"):
            CoherenceKlms(1.0, bad, 0.1, input_dim=2)
    assert d == []


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(finite2, min_size=1, max_size=40),
    threshold=st.floats(0.05, 0.95),
)
def test_pairwise_coherence_bound(points, threshold):
    # after any admission sequence, distinct centers stay mutually dissimilar
    bandwidth = 1.0
    d = []
    sizes = []
    for p in points:
        coherence_admit(bandwidth, d, p, threshold)
        sizes.append(len(d))
    assert sizes == sorted(sizes)  # growth is monotone
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            assert kernel_eval(bandwidth, d[i], d[j]) <= threshold + 1e-12
