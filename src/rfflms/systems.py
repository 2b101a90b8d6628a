"""Synthetic plants for the benchmark scenarios.

Two plants are provided: a stationary Gaussian-kernel expansion driven by
an AR(1) input, and a piecewise recurrent plant whose coefficients switch
abruptly at a configured step. Both expose their noiseless output, so
filters can be scored on excess error above the noise floor, and both
calibrate their observation noise to a target SNR from the realized clean
signal power of each run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .seeding import derive_seed

DEFAULT_PLANT_WEIGHTS = (0.756, -1.384, -0.101, 0.445, -0.565, 0.134)
DEFAULT_PLANT_CENTERS = (
    (0.17, -1.92),
    (-1.62, -0.18),
    (0.52, 1.55),
    (2.90, 1.92),
    (-2.01, -2.47),
    (2.66, -0.82),
)
DEFAULT_PLANT_BANDWIDTH = 0.95


@dataclass(frozen=True)
class Ar1Spec:
    """Standardized AR(1) input: x_n = rho * x_{n-1} + sqrt(1 - rho^2) * u_n."""

    rho: float

    def __post_init__(self):
        if not (np.isfinite(self.rho) and abs(self.rho) < 1.0):
            raise ValueError(f"rho must satisfy |rho| < 1, got {self.rho}")


@dataclass
class KernelPlantSpec:
    """Target function: weighted Gaussian-kernel expansion over fixed centers."""

    weights: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_PLANT_WEIGHTS))
    centers: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_PLANT_CENTERS))
    bandwidth: float = DEFAULT_PLANT_BANDWIDTH

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.centers.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"{self.weights.shape[0]} weights but {self.centers.shape[0]} centers"
            )
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    def response(self, inputs: np.ndarray) -> np.ndarray:
        """Noiseless plant output for a batch of input vectors (n, input_dim)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        d2 = ((inputs[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * self.bandwidth**2)) @ self.weights


@dataclass(frozen=True)
class PiecewisePlantSpec:
    """Recurrent plant with an abrupt coefficient switch.

    The first recursion drives d_n for steps n <= change_step, the second
    one after, starting from d_{-1} = d_{-2} = d_init.
    """

    change_step: int = 5000
    horizon: int = 10000
    d_init: tuple[float, float] = (0.1, 0.1)

    def __post_init__(self):
        if not 0 < self.change_step < self.horizon:
            raise ValueError(
                f"need 0 < change_step < horizon, got {self.change_step}, {self.horizon}"
            )

    def trajectory(self) -> np.ndarray:
        d = np.empty(self.horizon)
        dm1, dm2 = self.d_init
        for n in range(self.horizon):
            w = math.exp(-dm1 * dm1)
            if n <= self.change_step:
                dn = (0.8 - 0.5 * w) * dm1 + 0.1 * math.sin(dm1 * math.pi) \
                    - (0.3 + 0.9 * w) * dm2
            else:
                dn = (0.2 - 0.7 * w) * dm1 + 0.2 * math.sin(dm1 * math.pi) \
                    - (0.8 + 0.8 * w) * dm2
            d[n] = dn
            dm2, dm1 = dm1, dn
        return d


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise target SNR in dB; +inf disables the noise."""

    snr_db: float

    def __post_init__(self):
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be a real number or +inf, got {self.snr_db}")


@dataclass
class SampleStream:
    """Per-step inputs, noisy targets, noiseless targets, and the noise itself."""

    inputs: np.ndarray
    targets: np.ndarray
    clean: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        n = self.inputs.shape[0]
        if not (self.targets.shape == self.clean.shape == self.noise.shape == (n,)):
            raise ValueError("inputs, targets, clean and noise lengths disagree")
        if not np.array_equal(self.targets, self.clean + self.noise):
            raise ValueError("targets must equal clean + noise exactly")
        if not all(np.all(np.isfinite(a)) for a in (self.inputs, self.targets)):
            raise ValueError("stream values must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def gen_ar1(spec: Ar1Spec, n_steps: int, seed: int) -> np.ndarray:
    """Standardized AR(1) sequence started from x_{-1} = 0.

    The sqrt(1 - rho^2) innovation scaling makes the process unit-variance
    from the very first step, so no burn-in is needed.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    u = np.random.default_rng(seed).standard_normal(n_steps)
    scale = math.sqrt(1.0 - spec.rho**2)
    return lfilter([scale], [1.0, -spec.rho], u)


def calibrate_noise(clean: np.ndarray, noise: NoiseSpec, seed: int) -> np.ndarray:
    """Zero-mean Gaussian noise sized to hit the target SNR against ``clean``.

    Variance is mean(clean^2) * 10**(-snr_db/10), using the realized clean
    power of this run rather than any analytic constant.
    """
    clean = np.asarray(clean, dtype=float)
    if noise.snr_db == math.inf:
        return np.zeros_like(clean)
    power = float(np.mean(clean * clean))
    if power == 0.0:
        raise ValueError("cannot calibrate noise against an all-zero clean sequence")
    sigma = math.sqrt(power * 10.0 ** (-noise.snr_db / 10.0))
    return sigma * np.random.default_rng(seed).standard_normal(clean.shape[0])


def gen_stationary_stream(plant: KernelPlantSpec, input_spec: Ar1Spec,
                          noise: NoiseSpec, n_steps: int, seed: int) -> SampleStream:
    """Kernel-expansion plant fed by stacked AR(1) pairs x_n = (x_n, x_{n-1})."""
    x = gen_ar1(input_spec, n_steps, derive_seed(seed, "input"))
    lagged = np.concatenate([[0.0], x[:-1]])
    inputs = np.stack([x, lagged], axis=1)
    clean = plant.response(inputs)
    z = calibrate_noise(clean, noise, derive_seed(seed, "noise"))
    return SampleStream(inputs, clean + z, clean, z)


def gen_nonstationary_stream(plant: PiecewisePlantSpec, noise: NoiseSpec,
                             seed: int) -> SampleStream:
    """Piecewise recurrent plant; inputs are the delayed outputs (d_{n-1}, d_{n-2})."""
    d = plant.trajectory()
    d0, d1 = plant.d_init
    lag1 = np.concatenate([[d0], d[:-1]])
    lag2 = np.concatenate([[d1, d0], d[:-2]])
    inputs = np.stack([lag1, lag2], axis=1)
    z = calibrate_noise(d, noise, derive_seed(seed, "noise"))
    return SampleStream(inputs, d + z, d, z)
