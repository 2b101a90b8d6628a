"""Learning-curve metrics.

Excess error is the squared gap between the plant's noiseless output and
the filter's pre-update prediction, so the observation-noise floor never
enters the curves. The runner computes it per step and sums the curves in
run order; that sum is the only aggregation, and a mean curve is a plain
array. Curves live in linear scale; conversion to dB happens only at
export, after averaging.
"""

from __future__ import annotations

import numpy as np


def steady_state_emse(curve, window: int) -> float:
    """Mean of the final ``window`` entries of a learning curve."""
    curve = np.asarray(curve, dtype=float)
    n = curve.shape[0]
    if not 1 <= window <= n:
        raise ValueError(f"window must lie in [1, {n}], got {window}")
    return float(np.mean(curve[n - window:]))


def to_db(x):
    """10*log10(x) for positive scalars or arrays."""
    a = np.asarray(x, dtype=float)
    if not np.all(a > 0):  # NaN is not positive either
        raise ValueError("dB conversion needs strictly positive values")
    out = 10.0 * np.log10(a)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out
