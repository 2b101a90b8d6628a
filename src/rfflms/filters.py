"""Streaming kernel LMS filters, batched over independent runs.

Two classes implement the three filter kinds. ``AdaptiveRffLms`` runs
both RFF kinds: ``rff`` is ``AdaptiveRffLms`` with zero frequency and
phase step sizes, also available as ``RffLms``. ``CoherenceKlms`` runs
``coherence-klms``. Both share one step contract: consume a sample (x, y),
return the pre-update prediction and error, then update their state by one
stochastic gradient step on the squared error. A step with zero error
leaves the state untouched, and any learning rate may be zero to freeze
the corresponding update.

Runs. A filter holds the state of R independent runs that share their
step sizes and advance in lockstep. ``AdaptiveRffLms`` built from a bank
of shape (D, L) is a single-run filter; built from a stacked bank (R, D, L)
it is batched, with weights (R, D). ``CoherenceKlms`` is batched when
given ``n_runs``. Every computation is per run, so a run's results are
bit-for-bit the same whichever runs share its batch, and a single-run
filter is the R=1 batch.

Both classes step through streams with one method, ``run(inputs,
targets)``, which consumes a whole stream and returns ``(predictions,
model_sizes)``: the pre-update prediction of every step and the model
size after it. A
single-run filter takes inputs (T, L) and targets (T,) and returns arrays
of length T; a batched one takes (R, T, L) and (R, T), one stream per run,
and returns (R, T) arrays. The stream is checked for shape and finiteness
once per call, not once per step. The state carries over between calls,
so running a stream in pieces gives bit-for-bit what one call over the
whole stream gives. ``step(x, y)`` is a single-run filter's ``run`` over a
stream of length 1 that returns a ``StepOutcome``; ``predict`` and
``loss`` check their sample with the same stream check.

Divergence. A run diverges at the step whose update left its state
non-finite; steps are global and 1-based, counted over every step the
filter has taken (``n_steps`` before the call plus the position in the
stream). The check is lazy. A non-finite state always gives a non-finite
prediction on a finite input, so the steps of a time chunk test nothing,
and the chunk's predictions are tested at once afterwards. At the first
step where a run not yet diverged predicts a non-finite value, the chunk
is redone from a copy of its starting state, up to that step, and the
run's state is tested exactly: if it is not finite the previous step
diverged, otherwise the prediction overflowed from a finite state, and
this step diverges (its update would spread the overflow). The state is
also tested once at the end of each call. A diverged run keeps its slot:
its step goes to ``diverged_at`` (0 for a live run) and it is stepped on
with the other runs, whose bits it cannot touch, until every run of the
batch has diverged; the call then takes no further step. Its state after
that step is not defined. At the end of the call its predictions from
that step on are set to NaN and its model sizes to 0. A single-run filter
raises ``DivergenceError`` with the step at the end of the call instead,
and is not usable afterwards. Overflow on the way there raises no numpy
warning: ``diverged_at`` and ``DivergenceError`` are how it is reported.

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
from .kernels import check_bandwidth, coherence_admit, kernelized_input  # noqa: F401

# the steps between two tests of the predictions form a time chunk of
# _CHUNK // (state entries of the batch) steps, and at least _MIN_CHUNK;
# frozen features compute a chunk's cosines at once. CoherenceKlms computes
# its kernel rows per time block of at most _BLOCK steps, fewer if the
# block's (steps, runs, L, capacity) differences would exceed _CHUNK
# entries, and at least one
_CHUNK = 1 << 16
_MIN_CHUNK = 64
_BLOCK = 32


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


def _check_rate(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


class _StreamFilter:
    """``run``, ``step`` and the stream check around a filter's time loop.

    A subclass provides ``batched``, ``n_runs``, ``input_dim``, the working
    state of all its runs (``_state``, written back by ``_store``), its
    exact finiteness test per run (``_finite``) and the time loop itself
    (``_steps``), which steps every run, diverged or not. ``run`` stops
    calling it once every run has diverged.
    """

    def _check_stream(self, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
        """The stream as time-major contiguous (T, R, L) inputs and (T, R) targets."""
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        lead = (self.n_runs,) if self.batched else ()
        if (inputs.ndim != len(lead) + 2 or inputs.shape[:len(lead)] != lead
                or inputs.shape[-1] != self.input_dim or targets.shape != inputs.shape[:-1]):
            want = f"{self.n_runs}, " if self.batched else ""
            raise ValueError(
                f"expected inputs of shape ({want}T, {self.input_dim}) and targets of "
                f"shape ({want}T), got {inputs.shape} and {targets.shape}"
            )
        if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
            raise ValueError("stream (inputs, targets) must be finite")
        if not self.batched:
            inputs, targets = inputs[None], targets[None]
        return np.ascontiguousarray(inputs.transpose(1, 0, 2)), np.ascontiguousarray(targets.T)

    def _sample(self, x, y=0.0) -> tuple[np.ndarray, float]:
        if self.batched:
            raise ValueError("a batched filter takes whole streams through run()")
        inputs, targets = self._check_stream(np.asarray(x)[None], [y])
        return inputs[0, 0], float(targets[0, 0])

    def step(self, x, y) -> StepOutcome:
        predictions, sizes = self.run(np.asarray(x)[None], [y])
        prediction = float(predictions[0])
        return StepOutcome(prediction, float(y) - prediction, int(sizes[0]))

    @np.errstate(all="ignore")
    def run(self, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self._check_stream(inputs, targets)
        horizon, n_runs = ys.shape
        base = self.n_steps
        predictions = np.empty((horizon, n_runs))
        sizes = np.empty((horizon, n_runs), dtype=int)
        state = self._state()
        start = 0
        while start < horizon and not self.diverged_at.all():
            stop = min(horizon, start + max(_MIN_CHUNK, _CHUNK // state[0].size))
            saved = [a.copy() for a in state]
            self._steps(state, xs[start:stop], ys[start:stop],
                        predictions[start:stop], sizes[start:stop])
            bad = ~np.isfinite(predictions[start:stop]) & (self.diverged_at == 0)
            if bad.any():
                # redo the chunk up to its first new non-finite prediction,
                # and test the state there exactly
                stop = start + int(np.argmax(bad.any(axis=1)))
                state[:] = saved
                self._steps(state, xs[start:stop], ys[start:stop],
                            predictions[start:stop], sizes[start:stop])
                new = bad[stop - start]
                self.diverged_at[new] = np.maximum(base + stop + self._finite(state)[new], base + 1)
            start = stop
        self.diverged_at[(self.diverged_at == 0) & ~self._finite(state)] = base + horizon
        self._store(state)
        self.n_steps = base + horizon
        gone = (self.diverged_at > 0) & (np.arange(base + 1, base + horizon + 1)[:, None]
                                         >= self.diverged_at)
        predictions[gone] = np.nan
        sizes[gone] = 0
        if not self.batched:
            if self.diverged_at[0]:
                raise DivergenceError(int(self.diverged_at[0]))
            return predictions[:, 0], sizes[:, 0]
        return predictions.T, sizes.T


class AdaptiveRffLms(_StreamFilter):
    """LMS on a cosine feature expansion that also learns the features.

    Per step, with e the pre-update error and theta_m the m-th feature angle:

        weights  +=  lr_weights * e * z(x)
        freqs[m] -=  lr_freqs  * e * weights[m] * sin(theta_m) * x
        phases[m]-=  lr_phases * e * weights[m] * sin(theta_m)

    The joint objective is not convex in the frequencies and phases, so a
    bad step size can blow the state up; see the module docstring for how
    that is caught and reported. With both feature step sizes zero the bank
    never changes, and the features of a whole time chunk are computed at
    once.
    """

    def __init__(self, bank: FeatureBank, lr_weights: float,
                 lr_freqs: float, lr_phases: float):
        self.bank = bank.copy()
        self.weights = np.zeros(self.bank.phases.shape)
        self.lr_weights = _check_rate("lr_weights", lr_weights)
        self.lr_freqs = _check_rate("lr_freqs", lr_freqs)
        self.lr_phases = _check_rate("lr_phases", lr_phases)
        self.n_steps = 0
        self.diverged_at = np.zeros(self.n_runs, dtype=int)

    @property
    def batched(self) -> bool:
        return self.bank.freqs.ndim == 3

    @property
    def n_runs(self) -> int:
        return self.bank.freqs.shape[0] if self.batched else 1

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

    def _state(self) -> list[np.ndarray]:
        shape = (self.n_runs, self.model_size)
        self.weights = np.asarray(self.weights, dtype=float)
        return [self.weights.reshape(shape),
                self.bank.freqs.reshape(shape + (self.input_dim,)),
                self.bank.phases.reshape(shape)]

    def _store(self, state) -> None:
        for full, part in zip(self._state(), state):
            full[...] = part

    def _finite(self, state) -> np.ndarray:
        w, freqs, phases = state
        finite = np.isfinite
        return finite(w).all(axis=1) & finite(freqs).all(axis=(1, 2)) & finite(phases).all(axis=1)

    def _steps(self, state, xs, ys, predictions, sizes) -> None:
        w, freqs, phases = state
        lr_weights, lr_freqs, lr_phases = self.lr_weights, self.lr_freqs, self.lr_phases
        cos, sin, matmul, vecdot = np.cos, np.sin, np.matmul, np.vecdot
        sizes[:] = self.model_size
        if lr_freqs == 0.0 and lr_phases == 0.0:
            # the stacked matvec gives each (step, run) the bits of freqs @ x
            zs = cos(matmul(freqs, xs[..., None])[..., 0] + phases)
            for t, z in enumerate(zs):
                p = predictions[t] = vecdot(w, z)
                w += (lr_weights * (ys[t] - p))[:, None] * z
            return
        step, coords = np.empty(freqs.shape), range(freqs.shape[2])
        for t, x in enumerate(xs[..., None]):
            theta = matmul(freqs, x)[..., 0] + phases
            z = cos(theta)
            p = predictions[t] = vecdot(w, z)
            e = ys[t] - p
            # pre-update weights drive the feature gradients
            g = e[:, None] * w * sin(theta)
            # freqs[:, :, i] -= (lr_freqs * g) * x_i for each coordinate i,
            # built in one buffer so that numpy loops over D, not L
            lg = lr_freqs * g
            for i in coords:
                np.multiply(lg, x[:, i], out=step[:, :, i])
            freqs -= step
            phases -= lr_phases * g
            w += (lr_weights * e)[:, None] * z


class RffLms(AdaptiveRffLms):
    """LMS on a frozen cosine feature expansion; only the weights adapt."""

    def __init__(self, bank: FeatureBank, lr_weights: float):
        super().__init__(bank, lr_weights, 0.0, 0.0)


def _kernel_rows(centers: np.ndarray, xs: np.ndarray, scale: float) -> np.ndarray:
    """Gaussian kernel of each input in ``xs`` (..., R, L) against its run's
    centers, stored coordinate-major as (R, L, C): rows (..., R, C). The
    +inf padding gives exactly 0. The squares are added over L one
    coordinate at a time, so an entry's bits do not depend on C or on the
    leading shape."""
    diff = centers - xs[..., None]
    diff *= diff
    k = diff[..., 0, :].copy()
    for i in range(1, diff.shape[-2]):
        k += diff[..., i, :]
    k /= -scale
    return np.exp(k, out=k)


class CoherenceKlms(_StreamFilter):
    """Gaussian kernel LMS over a dictionary grown online by the coherence rule.

    Each step first offers x to the dictionary (admitted centers enter at
    weight zero, so the prediction is continuous across admissions), then
    predicts from the kernelized input and LMS-updates all active weights.
    The admission test's kernel vector is the one the step predicts with:
    an admitted center's own entry is exactly 1.0.

    The kernel vectors do not depend on the weights, and the dictionary
    changes only on admission, so they are computed for a whole time block
    at once, with their peaks. An admission writes the new center's
    column into the block's later rows and raises their peaks to it; the
    step loop itself only checks for admission, predicts and updates. Each
    kernel entry takes the same operations whatever the block, so the
    block length changes no bit.

    Each run's centers fill the leading columns of an (L, capacity) buffer
    padded with +inf, whose kernel value is exactly 0, and its weights the
    leading entries of a zero-padded (capacity,) buffer. The capacity is a
    power of two, at least 16, shared by the batch, and doubles when a run
    fills it. The prediction sums ``weights * kernel`` over the whole
    buffer; numpy's pairwise sum over a power-of-two length adds the padding
    in whole blocks of zeros, so a run's prediction is the same bits
    whatever capacity its batch needs. ``sizes`` holds each run's
    dictionary size; ``weights`` and ``centers`` are the active parts, one
    array for a single-run filter and a list of per-run arrays for a
    batched one.
    """

    def __init__(self, bandwidth: float, coherence_threshold: float,
                 lr_weights: float, input_dim: int, n_runs: int | None = None):
        if not 0.0 < coherence_threshold < 1.0:
            raise ValueError(
                f"coherence_threshold must lie in (0, 1), got {coherence_threshold}"
            )
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if n_runs is not None and n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {n_runs}")
        self.bandwidth = check_bandwidth(bandwidth)
        self.coherence_threshold = float(coherence_threshold)
        self.lr_weights = _check_rate("lr_weights", lr_weights)
        self.input_dim = input_dim
        self.batched = n_runs is not None
        self.n_runs = n_runs or 1
        self._centers = np.full((self.n_runs, input_dim, 16), np.inf)
        self._weights = np.zeros((self.n_runs, 16))
        self.sizes = np.zeros(self.n_runs, dtype=int)
        self.n_steps = 0
        self.diverged_at = np.zeros(self.n_runs, dtype=int)

    def _active(self, buffer: np.ndarray):
        parts = [buffer[r, :size] for r, size in enumerate(self.sizes.tolist())]
        return parts if self.batched else parts[0]

    @property
    def model_size(self):
        return self.sizes.copy() if self.batched else int(self.sizes[0])

    @property
    def weights(self):
        return self._active(self._weights)

    @property
    def centers(self):
        return self._active(self._centers.transpose(0, 2, 1))

    def predict(self, x) -> float:
        x, _ = self._sample(x)
        k = _kernel_rows(self._centers, x[None], 2.0 * self.bandwidth**2)
        return float(np.add.reduce(self._weights * k, axis=1)[0])

    def _state(self) -> list[np.ndarray]:
        return [self._weights, self._centers, self.sizes]

    def _store(self, state) -> None:
        self._weights, self._centers, self.sizes = state

    def _finite(self, state) -> np.ndarray:
        return np.isfinite(state[0]).all(axis=1)

    def _steps(self, state, xs, ys, predictions, sizes) -> None:
        w, centers, size = state
        threshold, lr = self.coherence_threshold, self.lr_weights
        scale = 2.0 * self.bandwidth**2
        add = np.add.reduce
        horizon, n_runs, dim = xs.shape
        start = 0
        while start < horizon:
            stop = min(horizon, start + max(1, min(_BLOCK, _CHUNK // (n_runs * dim * w.shape[1]))))
            block = xs[start:stop]
            ks = _kernel_rows(centers, block, scale)
            peaks = np.maximum.reduce(ks, axis=2)
            # a step flagged here may admit: a later admission can only raise
            # its peaks, and then it need not
            flagged = (~(peaks > threshold)).any(axis=1).tolist()
            sizes[start:stop] = size
            for j in range(stop - start):
                t = start + j
                if flagged[j] and (admit := np.flatnonzero(~(peaks[j] > threshold))).size:
                    if size[admit].max() == w.shape[1]:
                        # double the buffers; written back by _store
                        cap = w.shape[1]
                        w = state[0] = np.pad(w, ((0, 0), (0, cap)))
                        centers = state[1] = np.pad(centers, ((0, 0), (0, 0), (0, cap)),
                                                    constant_values=np.inf)
                        ks = np.pad(ks, ((0, 0), (0, 0), (0, cap)))
                    slot = size[admit]
                    x = block[j, admit]
                    centers[admit, :, slot] = x
                    ks[j, admit, slot] = 1.0
                    size[admit] += 1
                    sizes[t:stop] = size
                    if j + 1 < stop - start:
                        # the new center's column for the block's later steps
                        column = _kernel_rows(x[:, :, None], block[j + 1:, admit], scale)[..., 0]
                        ks[j + 1:, admit, slot] = column
                        later = peaks[j + 1:]
                        later[:, admit] = np.maximum(later[:, admit], column)
                k = ks[j]
                p = predictions[t] = add(w * k, axis=1)
                w += (lr * (ys[t] - p))[:, None] * k
            start = stop
