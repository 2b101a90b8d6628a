"""Exact Gaussian kernel and the coherence-sparsified center dictionary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianKernel:
    """exp(-||x - x'||^2 / (2 * bandwidth^2))"""

    bandwidth: float

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")


class Dictionary:
    """Append-only set of kernel expansion centers, all of one input dimension."""

    def __init__(self, input_dim: int, capacity: int | None = None):
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.input_dim = input_dim
        self.capacity = capacity
        self._centers = np.empty((0, input_dim), dtype=float)

    def __len__(self) -> int:
        return self._centers.shape[0]

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self) >= self.capacity

    def append(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected center of shape ({self.input_dim},), got {x.shape}")
        if self.is_full:
            raise ValueError(f"dictionary is at capacity {self.capacity}")
        self._centers = np.vstack([self._centers, x[None, :]])


def kernelized_input(kernel: GaussianKernel, dictionary: Dictionary, x) -> np.ndarray:
    """Kernel value of x against every center; components in (0, 1]."""
    if len(dictionary) == 0:
        raise ValueError("kernelized_input needs a nonempty dictionary")
    x = np.asarray(x, dtype=float)
    if x.shape != (dictionary.input_dim,):
        raise ValueError(f"expected input of shape ({dictionary.input_dim},), got {x.shape}")
    diff = dictionary.centers - x
    return np.exp(-np.einsum("ij,ij->i", diff, diff) / (2.0 * kernel.bandwidth**2))


def coherence_admit(kernel: GaussianKernel, dictionary: Dictionary, x, threshold: float) -> bool:
    """Admit x as a new center iff its peak kernel similarity to the current
    centers is at most ``threshold`` (vacuously true for an empty dictionary).
    Admission appends x; a full dictionary rejects regardless of coherence.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if dictionary.is_full:
        return False
    if len(dictionary) > 0:
        if float(np.max(kernelized_input(kernel, dictionary, x))) > threshold:
            return False
    dictionary.append(x)
    return True
