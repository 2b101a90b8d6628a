"""Exact Gaussian kernel and the coherence-sparsified center dictionary.

The Gaussian kernel exp(-||x - x'||^2 / (2 * bandwidth^2)) is given by its
bandwidth alone, a plain positive number. ``kernelized_input`` and
``coherence_admit`` are the reference forms of the kernel vector and the
admission rule, over the centers of a ``Dictionary``; ``CoherenceKlms``
inlines both in its time loop over its own padded per-run center buffers,
computing the kernel vector once per step for the admission test and the
prediction alike.
"""

from __future__ import annotations

import math

import numpy as np


def check_bandwidth(bandwidth: float) -> float:
    """``bandwidth`` as a float; raises ValueError unless it is positive and finite."""
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    return float(bandwidth)


class Dictionary:
    """Append-only set of kernel expansion centers, all of one input dimension.

    The centers fill the leading rows of a buffer that doubles when full, so
    an admission copies the existing centers only when the buffer grows;
    ``centers`` is a view of the rows in use.
    """

    def __init__(self, input_dim: int):
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        self.input_dim = input_dim
        self._buffer = np.empty((16, input_dim), dtype=float)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def centers(self) -> np.ndarray:
        return self._buffer[:self._size]

    def append(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected center of shape ({self.input_dim},), got {x.shape}")
        if self._size == len(self._buffer):
            self._buffer = np.concatenate([self._buffer, np.empty_like(self._buffer)])
        self._buffer[self._size] = x
        self._size += 1


def kernelized_input(bandwidth: float, dictionary: Dictionary, x) -> np.ndarray:
    """Kernel value of x against every center; components in (0, 1]."""
    bandwidth = check_bandwidth(bandwidth)
    if len(dictionary) == 0:
        raise ValueError("kernelized_input needs a nonempty dictionary")
    x = np.asarray(x, dtype=float)
    if x.shape != (dictionary.input_dim,):
        raise ValueError(f"expected input of shape ({dictionary.input_dim},), got {x.shape}")
    diff = dictionary.centers - x
    return np.exp(-np.einsum("ij,ij->i", diff, diff) / (2.0 * bandwidth**2))


def coherence_admit(bandwidth: float, dictionary: Dictionary, x, threshold: float) -> bool:
    """Admit x as a new center iff its peak kernel similarity to the current
    centers is at most ``threshold`` (vacuously true for an empty dictionary).
    Admission appends x.
    """
    check_bandwidth(bandwidth)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if len(dictionary) > 0:
        if float(np.max(kernelized_input(bandwidth, dictionary, x))) > threshold:
            return False
    dictionary.append(x)
    return True
