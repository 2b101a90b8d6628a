"""Reference implementations that only the tests use.

Each one computes a quantity the library computes elsewhere, or inline,
in a direct and slow way, so the tests can compare the two.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rfflms.features import FeatureBank, _check_input, estimator_amplitude, feature_map
from rfflms.kernels import GaussianKernel
from rfflms.metrics import McAggregate
from rfflms.seeding import derive_seed
from rfflms.systems import SampleStream


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


def aggregate_runs(curves: list[LearningCurve]) -> McAggregate:
    """Pointwise arithmetic mean of equal-length curves."""
    if len(curves) == 0:
        raise ValueError("need at least one curve")
    lengths = {c.n_steps for c in curves}
    if len(lengths) != 1:
        raise ValueError(f"curves have ragged lengths: {sorted(lengths)}")
    mean = np.mean(np.stack([c.values for c in curves]), axis=0)
    return McAggregate(mean, len(curves))


def kernel_estimate(bank: FeatureBank, x, x2) -> float:
    """Monte Carlo kernel estimate z(x).z(x2); requires the estimator amplitude."""
    if not math.isclose(bank.amplitude, estimator_amplitude(bank.n_features), rel_tol=1e-12):
        raise ValueError("kernel_estimate needs a bank sampled with estimator_scale=True")
    return float(feature_map(bank, x) @ feature_map(bank, x2))


def feature_partials(bank: FeatureBank, x, m: int) -> tuple[np.ndarray, float]:
    """Exact partials of feature m (0-based) at x.

    Returns (d z_m / d freqs[m], d z_m / d phases[m]); both carry the factor
    -amplitude * sin(freqs[m] @ x + phases[m]), the frequency partial
    additionally multiplies by x.
    """
    x = _check_input(bank, x)
    if not 0 <= m < bank.n_features:
        raise IndexError(f"feature index {m} out of range [0, {bank.n_features})")
    s = -bank.amplitude * math.sin(float(bank.freqs[m] @ x + bank.phases[m]))
    return s * x, s


def kernel_eval(kernel: GaussianKernel, x, x2) -> float:
    """Gaussian kernel of one pair of points."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x2.shape}")
    d = x - x2
    return float(np.exp(-np.dot(d, d) / (2.0 * kernel.bandwidth**2)))


def make_rng(root: int, *path: int | str) -> np.random.Generator:
    """Generator seeded by ``derive_seed(root, *path)``."""
    return np.random.default_rng(derive_seed(root, *path))


def stream_to_csv(stream: SampleStream, path) -> None:
    """Columns: n, one column per input coordinate, clean, y."""
    dim = stream.inputs.shape[1]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"x{i}" for i in range(dim)] + ["clean", "y"])
        for n in range(len(stream)):
            writer.writerow(
                [n]
                + [f"{v:.12g}" for v in stream.inputs[n]]
                + [f"{stream.clean[n]:.12g}", f"{stream.targets[n]:.12g}"]
            )
