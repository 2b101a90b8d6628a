"""Random Fourier feature banks.

A bank holds one run's D frequency vectors and D phase factors, defining
the unit amplitude cosine feature map

    z_m(x) = cos(freqs[m] @ x + phases[m]),   m = 0..D-1.

Frequencies are sampled from a zero-mean Gaussian with standard deviation
1/bandwidth per coordinate, phases uniformly on [0, 2*pi), so that
(2/D) z(x).z(x') is an unbiased Monte Carlo estimate of the Gaussian kernel
exp(-||x-x'||^2 / (2*bandwidth^2)). ``sample_feature_bank`` takes that
bandwidth, the bank size D and the input dimension as plain numbers. The
filters never form the kernel estimate: they evaluate the map inline in
their time loop, and their learned weights absorb the scale of the
features. A filter over R runs takes one bank per run and stacks them
itself (see ``rfflms.filters``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import check_bandwidth

TWO_PI = 2.0 * math.pi


@dataclass
class FeatureBank:
    """D cosine features: frequency matrix (D, L) and phase vector (D,)."""

    freqs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.phases = np.asarray(self.phases, dtype=float)
        if self.freqs.ndim != 2 or self.freqs.shape[:1] != self.phases.shape:
            raise ValueError(
                f"a bank needs freqs of shape (D, L) and phases of shape (D,), "
                f"got {self.freqs.shape} and {self.phases.shape}"
            )
        if not (np.all(np.isfinite(self.freqs)) and np.all(np.isfinite(self.phases))):
            raise ValueError("feature bank entries must be finite")

    @property
    def n_features(self) -> int:
        return self.freqs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.freqs.shape[1]


def sample_feature_bank(bandwidth: float, n_features: int, input_dim: int,
                        seed: int) -> FeatureBank:
    """Draw a fresh bank; the same arguments (seed included) give a
    bit-identical bank.

    Frequencies: i.i.d. N(0, bandwidth**-2) per coordinate.
    Phases: i.i.d. uniform on [0, 2*pi).
    """
    bandwidth = check_bandwidth(bandwidth)
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    rng = np.random.default_rng(seed)
    freqs = rng.standard_normal((n_features, input_dim)) / bandwidth
    phases = rng.uniform(0.0, TWO_PI, n_features)
    return FeatureBank(freqs, phases)


def phase_angles(bank: FeatureBank, x: np.ndarray) -> np.ndarray:
    """Per-feature angles freqs @ x + phases; shared by the map and its gradients."""
    return bank.freqs @ x + bank.phases
