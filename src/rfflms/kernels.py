"""The Gaussian kernel and the coherence admission rule.

The Gaussian kernel exp(-||x - x'||^2 / (2 * bandwidth^2)) is given by its
bandwidth alone, a plain positive number. ``kernel_rows`` is the library's
one evaluation of it, over centers stored coordinate-major: the stationary
plant's response and ``CoherenceKlms``'s kernel vectors both call it.
``kernelized_input`` and ``coherence_admit`` are independent reference
forms of the kernel vector and the admission rule over plain (C, L)
centers, which ``coherence_admit`` grows as a list; the tests compare the
engine with them.
"""

from __future__ import annotations

import math

import numpy as np


def check_bandwidth(bandwidth: float, dtype=np.float64) -> float:
    """``bandwidth`` as a float; raises ValueError unless it is positive, the
    kernel's scale 2 * bandwidth^2 is a positive finite float, which holds
    from about 1.6e-162 to 9.4e153, and it lies within [16 / max, max] of the
    engine's ``dtype``. ``sample_feature_bank`` draws frequencies as standard
    normal values over the bandwidth, and numpy's ziggurat draws stay below
    13.8 in magnitude, so above that floor a bank stays finite in ``dtype``."""
    bandwidth = float(bandwidth)
    big = float(np.finfo(dtype).max)
    # a float product, which overflows to inf where ** would raise
    if not (bandwidth > 0 and 0 < 2.0 * (bandwidth * bandwidth) < math.inf):
        raise ValueError(f"bandwidth must be positive, with 2 * bandwidth**2 a "
                         f"positive finite float, got {bandwidth}")
    if not 16.0 / big <= bandwidth <= big:
        raise ValueError(f"bandwidth must lie within [{16.0 / big:.4g}, {big:.4g}] in "
                         f"{np.dtype(dtype)}, got {bandwidth}")
    return bandwidth


def check_threshold(threshold: float) -> float:
    """A coherence threshold as a float; raises ValueError unless it is in (0, 1)."""
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"coherence_threshold must lie in (0, 1), got {threshold}")
    return threshold


def kernel_rows(centers: np.ndarray, xs: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel of each input in ``xs`` (..., L) against ``centers``
    stored coordinate-major as (..., L, C), whose leading shape broadcasts
    against the inputs': rows (..., C). A +inf center gives exactly 0. The
    squares are added over L one coordinate at a time, so an entry's bits
    depend on neither C nor the leading shape. ``bandwidth`` is not checked."""
    diff = centers - xs[..., None]
    diff *= diff
    k = diff[..., 0, :].copy()
    for i in range(1, diff.shape[-2]):
        k += diff[..., i, :]
    k /= -(2.0 * bandwidth**2)
    return np.exp(k, out=k)


def kernelized_input(bandwidth: float, centers, x) -> np.ndarray:
    """Kernel value of x against every row of the (C, L) ``centers``;
    components in (0, 1]."""
    bandwidth = check_bandwidth(bandwidth)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or len(centers) == 0:
        raise ValueError(f"kernelized_input needs nonempty (C, L) centers, got {centers.shape}")
    x = np.asarray(x, dtype=float)
    if x.shape != centers.shape[1:]:
        raise ValueError(f"expected input of shape {centers.shape[1:]}, got {x.shape}")
    diff = centers - x
    return np.exp(-np.einsum("ij,ij->i", diff, diff) / (2.0 * bandwidth**2))


def coherence_admit(bandwidth: float, centers: list, x, threshold: float) -> bool:
    """Admit x as a new center iff its peak kernel similarity to the current
    centers is at most ``threshold`` (vacuously true for no centers).
    Admission appends a copy of x to the list ``centers``.
    """
    check_bandwidth(bandwidth)
    check_threshold(threshold)
    if centers and float(np.max(kernelized_input(bandwidth, centers, x))) > threshold:
        return False
    centers.append(np.array(x, dtype=float))
    return True
