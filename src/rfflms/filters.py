"""Streaming kernel LMS filters.

Two classes implement the three filter kinds. ``AdaptiveRffLms`` runs
both RFF kinds: ``rff`` is ``AdaptiveRffLms`` with zero frequency and
phase step sizes, also available as ``RffLms``. ``CoherenceKlms`` runs
``coherence-klms``. Both share one step contract: consume a sample (x, y),
return the pre-update prediction and error, then update their state by one
stochastic gradient step on the squared error. A step with zero error
leaves the state untouched, and any learning rate may be zero to freeze
the corresponding update.

Each class has exactly one time loop, ``run(inputs, targets)``, which
consumes a whole stream (inputs of shape (T, L), targets of shape (T,))
and returns ``(predictions, model_sizes)``, both of length T: the
pre-update prediction of every step and the model size after it. The
stream is checked for shape and finiteness once per call, not once per
step. The state carries over between calls, so running a stream in
pieces gives bit-for-bit what one call over the whole stream gives.
``step(x, y)`` is ``run`` over a stream of length 1 that returns a
``StepOutcome``; ``predict`` and ``loss`` check their sample with the same
stream check. Every step still verifies the state it updated; if that
state stopped being finite, ``run`` raises ``DivergenceError`` carrying
the global 1-based step index, counted over every step the filter has
taken (``n_steps`` before the call plus the position in the stream), and
the filter is not usable afterwards. Overflow on the way there raises no
numpy warning: ``DivergenceError`` is how it is reported.

``AdaptiveRffLms`` additionally descends on the feature frequencies and
phases. Within one step every right-hand side uses the pre-update state
(a simultaneous update): the fresh weights are not fed into the frequency
or phase updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# phase_angles, coherence_admit and kernelized_input stay importable from
# this module: perfbench/tracing.py patches them under these names
from .features import FeatureBank, phase_angles
from .kernels import Dictionary, GaussianKernel, coherence_admit, kernelized_input  # noqa: F401


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


def _check_stream(inputs, targets, input_dim: int) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if (inputs.ndim != 2 or inputs.shape[1] != input_dim
            or targets.shape != inputs.shape[:1]):
        raise ValueError(
            f"expected inputs of shape (T, {input_dim}) and targets of shape (T,), "
            f"got {inputs.shape} and {targets.shape}"
        )
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ValueError("stream (inputs, targets) must be finite")
    return inputs, targets


def _check_rate(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


class _StreamFilter:
    """``step`` and the sample check for a filter whose one time loop is ``run``."""

    def _sample(self, x, y=0.0) -> tuple[np.ndarray, float]:
        inputs, targets = _check_stream(np.asarray(x)[None], [y], self.input_dim)
        return inputs[0], float(targets[0])

    def step(self, x, y) -> StepOutcome:
        predictions, sizes = self.run(np.asarray(x)[None], [y])
        prediction = float(predictions[0])
        return StepOutcome(prediction, float(y) - prediction, int(sizes[0]))


class AdaptiveRffLms(_StreamFilter):
    """LMS on a cosine feature expansion that also learns the features.

    Per step, with e the pre-update error and theta_m the m-th feature angle:

        weights  +=  lr_weights * e * z(x)
        freqs[m] -=  lr_freqs  * e * weights[m] * sin(theta_m) * x
        phases[m]-=  lr_phases * e * weights[m] * sin(theta_m)

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
        x, _ = self._sample(x)
        return float(self.weights @ np.cos(phase_angles(self.bank, x)))

    def loss(self, x, y) -> float:
        """Instantaneous squared prediction error; pure, supports gradient checks."""
        x, y = self._sample(x, y)
        e = y - self.predict(x)
        return e * e

    @np.errstate(all="ignore")
    def run(self, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
        inputs, targets = _check_stream(inputs, targets, self.input_dim)
        freqs, phases = self.bank.freqs, self.bank.phases
        lr_weights, lr_freqs, lr_phases = self.lr_weights, self.lr_freqs, self.lr_phases
        adaptive = lr_freqs != 0.0 or lr_phases != 0.0
        cos, sin, isfinite = np.cos, np.sin, np.isfinite
        w = self.weights
        predictions = []
        base, n = self.n_steps, -1
        try:
            for n, y in enumerate(targets.tolist()):
                x = inputs[n]
                theta = freqs @ x + phases
                z = cos(theta)
                prediction = float(w @ z)
                e = y - prediction
                if adaptive:
                    # pre-update weights drive the feature gradients
                    g = e * w * sin(theta)
                    freqs -= lr_freqs * g[:, None] * x[None, :]
                    phases -= lr_phases * g
                    if not (isfinite(freqs).all() and isfinite(phases).all()):
                        raise DivergenceError(base + n + 1)
                w = w + lr_weights * e * z
                if not isfinite(w).all():
                    raise DivergenceError(base + n + 1)
                predictions.append(prediction)
        finally:
            self.weights = w
            self.n_steps = base + n + 1
        return np.array(predictions, dtype=float), np.full(len(targets), self.model_size)


class RffLms(AdaptiveRffLms):
    """LMS on a frozen cosine feature expansion; only the weights adapt."""

    def __init__(self, bank: FeatureBank, lr_weights: float):
        super().__init__(bank, lr_weights, 0.0, 0.0)


class CoherenceKlms(_StreamFilter):
    """Gaussian kernel LMS over a dictionary grown online by the coherence rule.

    Each step first offers x to the dictionary (admitted centers enter at
    weight zero, so the prediction is continuous across admissions), then
    predicts from the kernelized input and LMS-updates all active weights.
    The admission test's kernel vector is the one the step predicts with:
    an admitted center's own entry is exp(-0.0) == 1.0. Like the centers
    (see ``Dictionary``), the weights live in a buffer that doubles when
    full; ``weights`` is the view of the active ones.
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
        self._weights = np.zeros(16)
        self.n_steps = 0

    @property
    def input_dim(self) -> int:
        return self.dictionary.input_dim

    @property
    def model_size(self) -> int:
        return len(self.dictionary)

    @property
    def weights(self) -> np.ndarray:
        return self._weights[:len(self.dictionary)]

    def predict(self, x) -> float:
        x, _ = self._sample(x)
        if len(self.dictionary) == 0:
            return 0.0
        return float(self.weights @ kernelized_input(self.kernel, self.dictionary, x))

    @np.errstate(all="ignore")
    def run(self, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
        inputs, targets = _check_stream(inputs, targets, self.input_dim)
        dictionary, threshold, lr = self.dictionary, self.coherence_threshold, self.lr_weights
        scale = 2.0 * self.kernel.bandwidth**2
        exp, einsum, isfinite = np.exp, np.einsum, np.isfinite
        centers = dictionary.centers
        size = len(centers)
        w = self.weights
        predictions, sizes = [], []
        base, n = self.n_steps, -1
        try:
            for n, y in enumerate(targets.tolist()):
                x = inputs[n]
                if size:
                    diff = centers - x
                    k = exp(-einsum("ij,ij->i", diff, diff) / scale)
                    admit = not float(k.max()) > threshold
                else:
                    k, admit = np.empty(0), True
                if admit:
                    dictionary.append(x)
                    centers = dictionary.centers
                    size += 1
                    k = np.append(k, 1.0)
                    if size > len(self._weights):
                        self._weights = np.concatenate(
                            [self._weights, np.zeros_like(self._weights)])
                    w = self._weights[:size]
                prediction = float(w @ k)
                e = y - prediction
                w += lr * e * k
                if not isfinite(w).all():
                    raise DivergenceError(base + n + 1)
                predictions.append(prediction)
                sizes.append(size)
        finally:
            self.n_steps = base + n + 1
        return np.array(predictions, dtype=float), np.array(sizes, dtype=int)
