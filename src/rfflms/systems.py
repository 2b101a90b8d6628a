"""Synthetic plants for the benchmark scenarios.

Two plants are provided, each selected and parameterized by a
``PlantConfig``: a stationary Gaussian-kernel expansion driven by an AR(1)
input, and a piecewise recurrent plant whose coefficients switch abruptly
at a configured step. The kernel expansion (``PLANT_WEIGHTS``,
``PLANT_CENTERS``, ``PLANT_BANDWIDTH``) and the recurrent plant's initial
state ``D_INIT`` are fixed by the scenarios, so they are module constants.
A generator returns a run's stream as finite float64 arrays (inputs (T, 2),
targets (T,), clean (T,)). ``clean`` is the noiseless output, so filters can
be scored on excess error above the noise floor, and both plants calibrate
their observation noise to a target SNR from the realized clean signal
power of each run; at +inf SNR ``targets`` is ``clean``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import ConfigError, PlantConfig
from .kernels import kernel_rows
from .seeding import derive_seed

PLANT_WEIGHTS = np.array([0.756, -1.384, -0.101, 0.445, -0.565, 0.134])
PLANT_CENTERS = np.array([
    [0.17, -1.92],
    [-1.62, -0.18],
    [0.52, 1.55],
    [2.90, 1.92],
    [-2.01, -2.47],
    [2.66, -0.82],
])
PLANT_BANDWIDTH = 0.95
# d_{-1} = d_{-2} of the recurrent plant
D_INIT = (0.1, 0.1)


def kernel_plant_response(inputs: np.ndarray) -> np.ndarray:
    """Noiseless stationary-plant output for a batch of input vectors (n, 2): their
    ``kernel_rows`` against PLANT_CENTERS at PLANT_BANDWIDTH, times PLANT_WEIGHTS.
    Rows are evaluated 4096 at a time, which changes no bit and bounds the
    kernel differences' memory."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    clean = np.empty(len(inputs))
    for i in range(0, len(inputs), 4096):
        rows = kernel_rows(PLANT_CENTERS.T, inputs[i:i + 4096], PLANT_BANDWIDTH)
        clean[i:i + 4096] = rows @ PLANT_WEIGHTS
    return clean


@functools.lru_cache(maxsize=4)
def piecewise_trajectory(change_step: int, horizon: int) -> np.ndarray:
    """Noiseless recurrent-plant output d_0..d_{horizon-1}, read-only.

    The first recursion drives d_n for steps n <= change_step, the second
    one after, starting from d_{-1} = d_{-2} = D_INIT. It depends on no
    seed, so each process computes it once per (change_step, horizon).
    """
    d = np.empty(horizon)
    dm1, dm2 = D_INIT
    for n in range(horizon):
        w = math.exp(-dm1 * dm1)
        if n <= change_step:
            dn = (0.8 - 0.5 * w) * dm1 + 0.1 * math.sin(dm1 * math.pi) \
                - (0.3 + 0.9 * w) * dm2
        else:
            dn = (0.2 - 0.7 * w) * dm1 + 0.2 * math.sin(dm1 * math.pi) \
                - (0.8 + 0.8 * w) * dm2
        d[n] = dn
        dm2, dm1 = dm1, dn
    d.flags.writeable = False
    return d


def gen_ar1(rho: float, n_steps: int, seed: int) -> np.ndarray:
    """Standardized AR(1) sequence x_n = rho * x_{n-1} + sqrt(1 - rho^2) * u_n,
    started from x_{-1} = 0.

    The sqrt(1 - rho^2) innovation scaling makes the process unit-variance
    from the very first step, so no burn-in is needed.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    u = np.random.default_rng(seed).standard_normal(n_steps)
    scale = math.sqrt(1.0 - rho**2)

    def steps():
        prev = 0.0
        for v in u.tolist():
            prev = scale * v + rho * prev
            yield prev

    return np.fromiter(steps(), dtype=float, count=n_steps)


def calibrate_noise(clean: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Zero-mean Gaussian noise sized to hit ``snr_db`` against ``clean``;
    +inf gives no noise.

    Variance is mean(clean^2) * 10**(-snr_db/10), using the realized clean
    power of this run rather than any analytic constant.
    """
    clean = np.asarray(clean, dtype=float)
    if snr_db == math.inf:
        return np.zeros_like(clean)
    power = float(np.mean(clean * clean))
    if power == 0.0:
        raise ValueError("cannot calibrate noise against an all-zero clean sequence")
    sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0))
    return sigma * np.random.default_rng(seed).standard_normal(clean.shape[0])


def _check_plant(plant: PlantConfig, kind: str, horizon: int) -> None:
    if plant.kind != kind:
        raise ConfigError(f"plant.kind must be {kind!r} here, got {plant.kind!r}")
    plant.validate(horizon)


def gen_stationary_stream(plant: PlantConfig, horizon: int, seed: int) -> tuple[np.ndarray, ...]:
    """Kernel-expansion plant fed by stacked AR(1) pairs x_n = (x_n, x_{n-1})."""
    _check_plant(plant, "stationary", horizon)
    x = gen_ar1(plant.rho, horizon, derive_seed(seed, "input"))
    lagged = np.concatenate([[0.0], x[:-1]])
    inputs = np.stack([x, lagged], axis=1)
    clean = kernel_plant_response(inputs)
    z = calibrate_noise(clean, plant.snr_db, derive_seed(seed, "noise"))
    return inputs, clean + z, clean


def gen_nonstationary_stream(plant: PlantConfig, horizon: int,
                             seed: int) -> tuple[np.ndarray, ...]:
    """Piecewise recurrent plant; inputs are the delayed outputs (d_{n-1}, d_{n-2})."""
    _check_plant(plant, "nonstationary", horizon)
    d = piecewise_trajectory(plant.change_step, horizon)
    d0, d1 = D_INIT
    lag1 = np.concatenate([[d0], d[:-1]])
    lag2 = np.concatenate([[d1, d0], d[:-2]])
    inputs = np.stack([lag1, lag2], axis=1)
    z = calibrate_noise(d, plant.snr_db, derive_seed(seed, "noise"))
    return inputs, d + z, d
