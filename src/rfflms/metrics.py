"""Learning-curve metrics.

Excess error is the squared gap between the plant's noiseless output and
the filter's pre-update prediction, so the observation-noise floor never
enters the curves. The runner computes it per step and sums the curves in
run order; that sum is the only aggregation. Curves live in linear scale;
conversion to dB happens only at export, after averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class McAggregate:
    """Pointwise mean over Monte Carlo runs."""

    mean: np.ndarray
    n_runs: int


def steady_state_emse(agg: McAggregate, window: int) -> float:
    """Mean of the final ``window`` entries of the ensemble-average curve."""
    n = agg.mean.shape[0]
    if not 1 <= window <= n:
        raise ValueError(f"window must lie in [1, {n}], got {window}")
    return float(np.mean(agg.mean[n - window:]))


def to_db(x):
    """10*log10(x) for positive scalars or arrays."""
    a = np.asarray(x, dtype=float)
    if np.any(a <= 0):
        raise ValueError("dB conversion needs strictly positive values")
    out = 10.0 * np.log10(a)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out
