"""Random Fourier feature banks.

A bank holds one run's D frequency vectors and D phase factors, defining
the unit amplitude cosine feature map

    z_m(x) = cos(freqs[m] @ x + phases[m]),   m = 0..D-1.

Frequencies are sampled from a zero-mean Gaussian with standard deviation
1/bandwidth per coordinate, phases uniformly on [0, 2*pi), so that
(2/D) z(x).z(x') is an unbiased Monte Carlo estimate of the Gaussian kernel
exp(-||x-x'||^2 / (2*bandwidth^2)). ``sample_feature_bank`` takes that
bandwidth, the bank size D and the input dimension as plain numbers, and
returns the bank as plain arrays (freqs (D, L), phases (D,)). The filters
never form the kernel estimate: they evaluate the map inline in their time
loop, and their learned weights absorb the scale of the features. A filter
over R runs takes one bank per run and stacks them itself (see
``rfflms.filters``).

Banks are drawn and held in float64, so a bank depends only on its seed.
``AdaptiveRffLms`` checks the banks' shapes when it stacks them, casts
them to float32, and refuses one that is not finite once cast;
``check_bandwidth`` in float32 bounds the bandwidths whose drawn banks
always fit.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import check_bandwidth

TWO_PI = 2.0 * math.pi


def sample_feature_bank(bandwidth: float, n_features: int, input_dim: int,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a fresh bank, float64 ``(freqs, phases)``; the same arguments
    (seed included) give a bit-identical bank.

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
    return freqs, phases


def phase_angles(freqs: np.ndarray, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-feature angles freqs @ x + phases. The filters compute their angles
    inline in the time loop; only the tests and perfbench's tracer call this."""
    return freqs @ x + phases
