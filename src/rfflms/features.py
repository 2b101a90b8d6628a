"""Random Fourier feature banks.

A bank holds D frequency vectors and D phase factors defining the cosine
feature map

    z_m(x) = amplitude * cos(freqs[m] @ x + phases[m]),   m = 0..D-1.

Frequencies are sampled from a zero-mean Gaussian with standard deviation
1/bandwidth per coordinate, phases uniformly on [0, 2*pi), so that with the
estimator amplitude sqrt(2/D) the inner product z(x).z(x') is an unbiased
Monte Carlo estimate of the Gaussian kernel exp(-||x-x'||^2 / (2*bandwidth^2)).

Adaptive filters use unit amplitude instead and let the learned weights
absorb the scale; both conventions are supported, nothing in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def estimator_amplitude(n_features: int) -> float:
    """Map gain that makes z(x).z(x') estimate the kernel: sqrt(2/D)."""
    return math.sqrt(2.0 / n_features)


@dataclass(frozen=True)
class RffSpec:
    """What to sample: target-kernel bandwidth, bank size, input dimension, seed."""

    bandwidth: float
    n_features: int
    input_dim: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")


@dataclass
class FeatureBank:
    """D cosine features: frequency matrix (D, L), phase vector (D,), scalar gain."""

    freqs: np.ndarray
    phases: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self):
        self.freqs = np.atleast_2d(np.asarray(self.freqs, dtype=float))
        self.phases = np.asarray(self.phases, dtype=float).ravel()
        if self.freqs.shape[0] != self.phases.shape[0]:
            raise ValueError(
                f"freqs has {self.freqs.shape[0]} rows but phases has "
                f"{self.phases.shape[0]} entries"
            )
        if not (np.all(np.isfinite(self.freqs)) and np.all(np.isfinite(self.phases))):
            raise ValueError("feature bank entries must be finite")
        unit = math.isclose(self.amplitude, 1.0, rel_tol=1e-12)
        est = math.isclose(self.amplitude, estimator_amplitude(self.n_features), rel_tol=1e-12)
        if not (unit or est):
            raise ValueError(
                f"amplitude must be 1 or sqrt(2/D)={estimator_amplitude(self.n_features):.6g}, "
                f"got {self.amplitude}"
            )

    @property
    def n_features(self) -> int:
        return self.freqs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.freqs.shape[1]

    def copy(self) -> "FeatureBank":
        return FeatureBank(self.freqs.copy(), self.phases.copy(), self.amplitude)


def sample_feature_bank(spec: RffSpec, estimator_scale: bool = False) -> FeatureBank:
    """Draw a fresh bank; the same spec (seed included) gives a bit-identical bank.

    Frequencies: i.i.d. N(0, bandwidth**-2) per coordinate.
    Phases: i.i.d. uniform on [0, 2*pi).
    ``estimator_scale`` selects amplitude sqrt(2/D) instead of 1.
    """
    rng = np.random.default_rng(spec.seed)
    freqs = rng.standard_normal((spec.n_features, spec.input_dim)) / spec.bandwidth
    phases = rng.uniform(0.0, TWO_PI, spec.n_features)
    amp = estimator_amplitude(spec.n_features) if estimator_scale else 1.0
    return FeatureBank(freqs, phases, amp)


def _check_input(bank: FeatureBank, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (bank.input_dim,):
        raise ValueError(f"expected input of shape ({bank.input_dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector must be finite")
    return x


def phase_angles(bank: FeatureBank, x: np.ndarray) -> np.ndarray:
    """Per-feature angles freqs @ x + phases; shared by the map and its gradients."""
    return bank.freqs @ x + bank.phases


def feature_map(bank: FeatureBank, x) -> np.ndarray:
    """Evaluate all D features at x. Every component lies in [-amplitude, amplitude]."""
    x = _check_input(bank, x)
    return bank.amplitude * np.cos(phase_angles(bank, x))
