"""Exact Gaussian kernel and the coherence admission rule.

The Gaussian kernel exp(-||x - x'||^2 / (2 * bandwidth^2)) is given by its
bandwidth alone, a plain positive number. ``kernelized_input`` and
``coherence_admit`` are the reference forms of the kernel vector and the
admission rule, over plain centers: a (C, L) array-like, which
``coherence_admit`` grows as a list. ``CoherenceKlms`` inlines both over
its own padded per-run center buffers: it computes the kernel vectors of a
whole time block at once, for the admission test and the prediction alike,
and on an admission only the new center's column for the block's later
steps.
"""

from __future__ import annotations

import math

import numpy as np


def check_bandwidth(bandwidth: float) -> float:
    """``bandwidth`` as a float; raises ValueError unless it is positive and
    the kernel's scale 2 * bandwidth^2 is a positive finite float, which
    holds from about 1.6e-162 to 9.4e153."""
    bandwidth = float(bandwidth)
    # a float product, which overflows to inf where ** would raise
    if not (bandwidth > 0 and 0 < 2.0 * (bandwidth * bandwidth) < math.inf):
        raise ValueError(f"bandwidth must be positive, with 2 * bandwidth**2 a "
                         f"positive finite float, got {bandwidth}")
    return bandwidth


def check_threshold(threshold: float) -> float:
    """A coherence threshold as a float; raises ValueError unless it is in (0, 1)."""
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"coherence_threshold must lie in (0, 1), got {threshold}")
    return threshold


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
