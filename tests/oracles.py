"""Reference implementations that only the tests use.

Each one computes a quantity the library computes elsewhere, or inline,
in a direct and slow way, so the tests can compare the two. ``span_plant``
is a plant whose steady state classic LMS theory predicts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rfflms.config import preset
from rfflms.features import phase_angles
from rfflms.filters import AdaptiveRffLms, CoherenceKlms
from rfflms.kernels import coherence_admit, kernelized_input
from rfflms.seeding import derive_seed
from rfflms.systems import gen_stationary_stream


@dataclass
class LearningCurve:
    """Per-iteration excess squared error, linear scale."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")
        if np.any(self.values < 0):
            raise ValueError("curve values must be >= 0")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]


def emse_sample(clean: float, prediction: float) -> float:
    """Squared gap between the noiseless target and the prediction."""
    d = float(clean) - float(prediction)
    return d * d


def emse_curve(clean: np.ndarray, predictions: np.ndarray, label: str = "") -> LearningCurve:
    """Vectorized emse_sample over a whole run."""
    clean = np.asarray(clean, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if clean.shape != predictions.shape:
        raise ValueError(f"shape mismatch: {clean.shape} vs {predictions.shape}")
    return LearningCurve((clean - predictions) ** 2, label)


def aggregate_runs(curves: list[LearningCurve]) -> np.ndarray:
    """Pointwise arithmetic mean of equal-length curves."""
    if len(curves) == 0:
        raise ValueError("need at least one curve")
    lengths = {c.n_steps for c in curves}
    if len(lengths) != 1:
        raise ValueError(f"curves have ragged lengths: {sorted(lengths)}")
    return np.mean(np.stack([c.values for c in curves]), axis=0)


def _check_input(freqs: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != freqs.shape[1:]:
        raise ValueError(f"expected input of shape {freqs.shape[1:]}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector must be finite")
    return x


def feature_map(freqs: np.ndarray, phases: np.ndarray, x) -> np.ndarray:
    """Evaluate all D features of the bank (freqs (D, L), phases (D,)) at x.
    Every component lies in [-1, 1]."""
    x = _check_input(freqs, x)
    return np.cos(phase_angles(freqs, phases, x))


def kernel_estimate(freqs: np.ndarray, phases: np.ndarray, x, x2) -> float:
    """Monte Carlo kernel estimate (2/D) z(x).z(x2) of the unit-amplitude map."""
    return 2.0 / len(phases) * float(feature_map(freqs, phases, x)
                                     @ feature_map(freqs, phases, x2))


def feature_partials(freqs: np.ndarray, phases: np.ndarray, x,
                     m: int) -> tuple[np.ndarray, float]:
    """Exact partials of feature m (0-based) at x.

    Returns (d z_m / d freqs[m], d z_m / d phases[m]); both carry the factor
    -sin(freqs[m] @ x + phases[m]), the frequency partial additionally
    multiplies by x.
    """
    x = _check_input(freqs, x)
    if not 0 <= m < len(phases):
        raise IndexError(f"feature index {m} out of range [0, {len(phases)})")
    s = -math.sin(float(freqs[m] @ x + phases[m]))
    return s * x, s


def kernel_eval(bandwidth: float, x, x2) -> float:
    """Gaussian kernel of one pair of points."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x2.shape}")
    d = x - x2
    return float(np.exp(-np.dot(d, d) / (2.0 * bandwidth**2)))


def make_rng(root: int, *path: int | str) -> np.random.Generator:
    """Generator seeded by ``derive_seed(root, *path)``."""
    return np.random.default_rng(derive_seed(root, *path))


def stream_to_csv(stream, path) -> None:
    """Columns of a generator's (inputs, targets, clean): n, one column per
    input coordinate, clean, y."""
    inputs, targets, clean = stream
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"x{i}" for i in range(inputs.shape[1])] + ["clean", "y"])
        for n in range(len(inputs)):
            writer.writerow(
                [n]
                + [f"{v:.12g}" for v in inputs[n]]
                + [f"{clean[n]:.12g}", f"{targets[n]:.12g}"]
            )


def padded_sum(terms: np.ndarray) -> float:
    """Sum of ``terms`` as ``CoherenceKlms`` sums its padded buffer: zero-padded
    to a power-of-two length of at least 16, with numpy's pairwise sum."""
    length = max(16, 1 << (len(terms) - 1).bit_length())
    return float(np.pad(terms, (0, length - len(terms))).sum())


def klms_reference(bandwidth: float, threshold: float, lr_weights: float,
                   inputs: np.ndarray, targets: np.ndarray):
    """Coherence KLMS one sample at a time through the public kernel helpers:
    offer x to the centers, kernelize x against the grown centers, predict
    and update. The prediction sums weights * kernel as the filter does
    (``padded_sum``). Returns (predictions, sizes, weights, centers)."""
    centers = []
    weights = np.zeros(0)
    predictions, sizes = [], []
    for x, y in zip(inputs, targets):
        if coherence_admit(bandwidth, centers, x, threshold):
            weights = np.append(weights, 0.0)
        k = kernelized_input(bandwidth, centers, x)
        prediction = padded_sum(weights * k)
        weights = weights + lr_weights * (float(y) - prediction) * k
        predictions.append(prediction)
        sizes.append(len(centers))
    return np.array(predictions), np.array(sizes), weights, np.array(centers)


def size_curves(filt) -> np.ndarray:
    """Each run's model size after each step the filter has taken, as (R,
    ``n_steps``) floats rebuilt from its state: an RFF run's ``model_size``
    throughout, and a ``CoherenceKlms`` run's count of centers admitted up
    to the step (``admitted_at``). From a run's ``diverged_at`` on, where
    its state is not defined, its curve reads NaN, as its predictions do."""
    steps = np.arange(1, filt.n_steps + 1)
    if isinstance(filt, CoherenceKlms):
        admitted = filt.admitted_at[:, None, :]
        sizes = ((admitted > 0) & (admitted <= steps[:, None])).sum(axis=2).astype(float)
    else:
        sizes = np.repeat(filt.model_size[:, None].astype(float), len(steps), axis=1)
    diverged_at = filt.diverged_at[:, None]
    sizes[(diverged_at > 0) & (steps >= diverged_at)] = np.nan
    return sizes


def step(filt, x, y) -> float:
    """One online step of a one-stream filter: the float that ``run``
    returns over the one-sample stream (x, y)."""
    return float(filt.run(np.asarray(x)[None, None], [[y]])[0, 0])


def predict(filt, x, run: int = 0) -> float:
    """Run ``run``'s prediction at x from the filter's public state, without
    stepping it: the weights against the cosine features, or against the
    kernel of x with each center (``padded_sum``, 0 with no center).

    The cosine form takes any object with ``freqs``, ``phases`` and
    ``weights`` and computes in their dtype, with x cast to it as ``run``
    casts the stream: an ``AdaptiveRffLms``'s float32 state gives the bits
    of its loop, a float64 copy of it the float64 value."""
    if isinstance(filt, CoherenceKlms):
        centers = filt.centers[run]
        if len(centers) == 0:
            return 0.0
        return padded_sum(filt.weights[run] * kernelized_input(filt.bandwidth, centers, x))
    x = np.asarray(x, dtype=float).astype(filt.weights.dtype)
    return float(filt.weights[run] @ np.cos(filt.freqs[run] @ x + filt.phases[run]))


def loss(filt, x, y, run: int = 0) -> float:
    """Instantaneous squared prediction error of run ``run``, from
    ``predict``; pure, for gradient checks."""
    e = float(y) - predict(filt, x, run)
    return e * e


def rff_reference(freqs, phases, weights, lr_weights, lr_freqs, lr_phases, inputs, targets):
    """``AdaptiveRffLms``'s loop as plain expressions, one time step at a
    time, from the state (R, D, L) ``freqs``, (R, D) ``phases`` and
    ``weights`` over the stream (R, T, L) ``inputs`` and (R, T) ``targets``.

    It computes in the dtype of ``weights``, to which it casts everything
    else: float32 gives the filter's bits, since each operation is the
    loop's in the loop's order, and float64 the float64 form of the same
    filter. Returns (predictions (R, T) as float64, weights, freqs, phases)."""
    dtype = np.asarray(weights).dtype
    w, freqs, phases = (np.array(a, dtype=dtype) for a in (weights, freqs, phases))
    lr_w, lr_f, lr_p = (dtype.type(v) for v in (lr_weights, lr_freqs, lr_phases))
    xs = np.asarray(inputs, dtype=float).astype(dtype).transpose(1, 0, 2)
    ys = np.asarray(targets, dtype=float).astype(dtype).T
    predictions = []
    for x, y in zip(xs, ys):
        angles = (freqs @ x[..., None])[..., 0] + phases
        z = np.cos(angles)
        p = np.vecdot(w, z)
        e = (y - p)[:, None]
        g = (e * w) * np.sin(angles)
        freqs = freqs - (g * lr_f)[..., None] * x[:, None, :]
        phases = phases - g * lr_p
        w = w + (e * lr_w) * z
        predictions.append(p)
    return np.array(predictions, dtype=float).T, w, freqs, phases


def span_plant(filt: AdaptiveRffLms, w_star: np.ndarray, noise_var: float,
               horizon: int, seed: int):
    """A plant in the span of each run's own bank: y = w_star[r] . z_r(x) + v.

    Run r's inputs are the ``stationary-paper`` plant's AR(1) pairs
    (x_n, x_{n-1}), and v is white Gaussian noise of variance ``noise_var``.
    Returns (inputs (R, T, L), targets (R, T), clean (R, T), trace (R,)),
    where trace is the stream's mean ||z_r(x)||^2, an estimate of tr(R_zz).
    """
    plant = preset("stationary-paper").plant
    inputs, targets, clean, trace = [], [], [], []
    for r in range(filt.n_runs):
        x, _, _ = gen_stationary_stream(plant, horizon, derive_seed(seed, r, "input"))
        z = np.cos(x @ filt.freqs[r].T + filt.phases[r])
        d = z @ w_star[r]
        v = math.sqrt(noise_var) * make_rng(seed, r, "noise").standard_normal(horizon)
        inputs.append(x)
        targets.append(d + v)
        clean.append(d)
        trace.append(np.mean(np.sum(z * z, axis=1)))
    return np.stack(inputs), np.stack(targets), np.stack(clean), np.array(trace)
