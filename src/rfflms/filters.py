"""Streaming kernel LMS filters.

Two classes implement the three filter kinds. ``AdaptiveRffLms`` runs
both RFF kinds: ``rff`` is ``AdaptiveRffLms`` with zero frequency and
phase step sizes, also available as ``RffLms``. ``CoherenceKlms`` runs
``coherence-klms``. Both share one step contract: consume a sample (x, y),
return the pre-update prediction and error, then update their state by one
stochastic gradient step on the squared error. A step with zero error
leaves the state untouched, and any learning rate may be zero to freeze
the corresponding update.

``AdaptiveRffLms`` additionally descends on the feature frequencies and
phases. Within one step every right-hand side uses the pre-update state
(a simultaneous update): the fresh weights are not fed into the frequency
or phase updates. The frequency/phase gradient terms carry the bank
amplitude so they stay exact derivatives of ``loss`` under either
amplitude convention; at the default unit amplitude the factor drops out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureBank, feature_map, phase_angles
from .kernels import Dictionary, GaussianKernel, coherence_admit, kernelized_input


@dataclass(frozen=True)
class StepOutcome:
    """Pre-update prediction, its error against the observation, model size."""

    prediction: float
    error: float
    model_size: int


class DivergenceError(RuntimeError):
    """Filter state left the finite range; carries the 1-based step index."""

    def __init__(self, step: int):
        super().__init__(f"filter state became non-finite at step {step}")
        self.step = step


def _check_sample(x, y, input_dim: int) -> tuple[np.ndarray, float]:
    x = np.asarray(x, dtype=float)
    if x.shape != (input_dim,):
        raise ValueError(f"expected input of shape ({input_dim},), got {x.shape}")
    y = float(y)
    if not (np.all(np.isfinite(x)) and np.isfinite(y)):
        raise ValueError("sample (x, y) must be finite")
    return x, y


def _check_rate(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


class AdaptiveRffLms:
    """LMS on a cosine feature expansion that also learns the features.

    Per step, with e the pre-update error and theta_m the m-th feature angle:

        weights  +=  lr_weights * e * z(x)
        freqs[m] -=  lr_freqs  * e * weights[m] * amplitude * sin(theta_m) * x
        phases[m]-=  lr_phases * e * weights[m] * amplitude * sin(theta_m)

    The joint objective is not convex in the frequencies and phases, so a
    bad step size can blow the state up; every step verifies that the state
    it updated is finite and raises DivergenceError with the offending step
    index instead of continuing silently. With both feature step sizes zero
    the bank never changes, so only the weights are checked.
    """

    def __init__(self, bank: FeatureBank, lr_weights: float,
                 lr_freqs: float, lr_phases: float):
        self.bank = bank.copy()
        self.weights = np.zeros(self.bank.n_features)
        self.lr_weights = _check_rate("lr_weights", lr_weights)
        self.lr_freqs = _check_rate("lr_freqs", lr_freqs)
        self.lr_phases = _check_rate("lr_phases", lr_phases)
        self.n_steps = 0

    @property
    def input_dim(self) -> int:
        return self.bank.input_dim

    @property
    def model_size(self) -> int:
        return self.bank.n_features

    def predict(self, x) -> float:
        return float(self.weights @ feature_map(self.bank, x))

    def loss(self, x, y) -> float:
        """Instantaneous squared prediction error; pure, supports gradient checks."""
        x, y = _check_sample(x, y, self.input_dim)
        e = y - self.predict(x)
        return e * e

    def step(self, x, y) -> StepOutcome:
        x, y = _check_sample(x, y, self.input_dim)
        theta = phase_angles(self.bank, x)
        z = self.bank.amplitude * np.cos(theta)
        prediction = float(self.weights @ z)
        e = y - prediction
        if self.lr_freqs != 0.0 or self.lr_phases != 0.0:
            # pre-update weights drive the feature gradients
            g = (e * self.bank.amplitude) * self.weights * np.sin(theta)
            self.bank.freqs -= self.lr_freqs * g[:, None] * x[None, :]
            self.bank.phases -= self.lr_phases * g
            if not (np.isfinite(self.bank.freqs).all()
                    and np.isfinite(self.bank.phases).all()):
                raise DivergenceError(self.n_steps + 1)
        self.weights = self.weights + self.lr_weights * e * z
        self.n_steps += 1
        if not np.isfinite(self.weights).all():
            raise DivergenceError(self.n_steps)
        return StepOutcome(prediction, e, self.model_size)


class RffLms(AdaptiveRffLms):
    """LMS on a frozen cosine feature expansion; only the weights adapt."""

    def __init__(self, bank: FeatureBank, lr_weights: float):
        super().__init__(bank, lr_weights, 0.0, 0.0)


class CoherenceKlms:
    """Gaussian kernel LMS over a dictionary grown online by the coherence rule.

    Each step first offers x to the dictionary (admitted centers enter at
    weight zero, so the prediction is continuous across admissions), then
    predicts from the kernelized input and LMS-updates all active weights.
    """

    def __init__(self, kernel: GaussianKernel, coherence_threshold: float,
                 lr_weights: float, input_dim: int):
        if not 0.0 < coherence_threshold < 1.0:
            raise ValueError(
                f"coherence_threshold must lie in (0, 1), got {coherence_threshold}"
            )
        self.kernel = kernel
        self.coherence_threshold = float(coherence_threshold)
        self.lr_weights = _check_rate("lr_weights", lr_weights)
        self.dictionary = Dictionary(input_dim)
        self.weights = np.zeros(0)
        self.n_steps = 0

    @property
    def input_dim(self) -> int:
        return self.dictionary.input_dim

    @property
    def model_size(self) -> int:
        return len(self.dictionary)

    def predict(self, x) -> float:
        if len(self.dictionary) == 0:
            return 0.0
        return float(self.weights @ kernelized_input(self.kernel, self.dictionary, x))

    def step(self, x, y) -> StepOutcome:
        x, y = _check_sample(x, y, self.input_dim)
        if coherence_admit(self.kernel, self.dictionary, x, self.coherence_threshold):
            self.weights = np.append(self.weights, 0.0)
        k = kernelized_input(self.kernel, self.dictionary, x)
        prediction = float(self.weights @ k)
        e = y - prediction
        self.weights = self.weights + self.lr_weights * e * k
        self.n_steps += 1
        if not np.isfinite(self.weights).all():
            raise DivergenceError(self.n_steps)
        return StepOutcome(prediction, e, self.model_size)
