"""Streaming kernel LMS filters, each a batch of independent runs.

Two classes implement the three filter kinds. ``AdaptiveRffLms`` runs
both RFF kinds: ``rff`` is ``AdaptiveRffLms`` with zero frequency and
phase step sizes. ``CoherenceKlms`` runs ``coherence-klms``. Both share
one step contract: consume a sample (x, y), return the pre-update
prediction and error, then update their state by one stochastic gradient
step on the squared error. A step with zero error leaves the state
untouched, and any learning rate may be zero to freeze the corresponding
update.

Runs. A filter holds the state of R >= 1 independent runs that share
their step sizes and advance in lockstep: ``AdaptiveRffLms`` is built
from one feature bank per run, ``CoherenceKlms`` from ``n_runs``. Every
computation is per run, so a run's results are bit-for-bit the same
whichever runs share its batch.

Both classes step through streams with one method, ``run(inputs,
targets)``. It takes one stream per run, inputs (R, T, L) and targets
(R, T), and returns ``(predictions, model_sizes)`` as (R, T) arrays: the
pre-update prediction of every step and the model size after it. The
stream is checked for shape and finiteness once per call, not once per
step. The state carries over between calls, so running a stream in
pieces gives bit-for-bit what one call over the whole stream gives.
``step(x, y)`` is the online form for a filter of one run: ``run`` over a
stream of length 1, returning a ``StepOutcome``.

Divergence. A run diverges at its first step whose prediction is not
finite; steps are global and 1-based, counted over every step the filter
has taken (``n_steps`` before the call plus the position in the stream).
A non-finite state always gives a non-finite prediction on a finite
input, so every broken state shows in the next prediction: a run whose
update overflowed is flagged one step later, and one whose prediction
overflowed from a finite state at that step. The steps of a time chunk
test nothing; the chunk's predictions are tested at once afterwards. A
break on a call's last update is thus flagged at the next call's first
step, and a run that breaks on the last update of its stream keeps
finite predictions throughout. A diverged run keeps its slot: its step
goes to ``diverged_at`` (0 for a live run) and it is stepped on with the
other runs, whose bits it cannot touch, until every run of the batch has
diverged; the call then takes no further step. Its state after that step
is not defined. At the end of the call its predictions from that step on
are set to NaN and its model sizes to 0. ``run`` reports divergence only
through ``diverged_at``; ``step`` raises ``DivergenceError`` with the
step instead. Overflow on the way there raises no numpy warning.

``AdaptiveRffLms`` additionally descends on the feature frequencies and
phases. Within one step every right-hand side uses the pre-update state
(a simultaneous update): the fresh weights are not fed into the frequency
or phase updates.

Buffers. A step works on arrays of a few dozen to a few hundred entries,
so its cost is the per-call overhead of its 6 to 20 numpy operations,
and allocating a fresh result is a large part of that. The loop over a
time chunk therefore allocates its working arrays (angles, features,
error, gradient, updates) once, or again when ``CoherenceKlms`` doubles
its capacity, and every per-step operation writes into one of them with
``out=``. The operations and their order are those of the plain
expressions, so the bits are too.

Precision. ``AdaptiveRffLms`` computes in float32: its ``freqs``,
``phases`` and ``weights``, every buffer of its time loop and its copy of
the stream, which ``run`` casts once per call, and its step sizes, which
the loop casts to float32 scalars. Its cost is the cosines and
sines of the feature angles, and float32 ``np.cos`` and ``np.sin`` cost a
small fraction of the float64 ones; at the presets' step sizes the
steady-state EMSE is within 0.01 dB of float64's. What float32 cannot hold is
refused at the boundary, never met inside a run: a stream value beyond
``F32_MAX`` (``run`` raises ``ValueError``), a bank that is not finite once
cast (the constructor raises), a step size that float32 would round to 0
or inf (``check_rff_rate``) and, at config validation, a bandwidth whose
sampled bank would not fit (``check_rff_bandwidth``). ``CoherenceKlms``
stays float64: its admission test compares kernel peaks with the
threshold, and rounding them would change which inputs it admits. Both
return float64 predictions, so the EMSE, the aggregation and the export
downstream are float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# phase_angles, coherence_admit and kernelized_input stay importable from
# this module: perfbench/tracing.py patches them under these names
from .features import FeatureBank, phase_angles  # noqa: F401
from .kernels import coherence_admit, kernelized_input  # noqa: F401
from .kernels import check_bandwidth, check_threshold

# the steps between two tests of the predictions, which flag divergence,
# form a time chunk of _CHUNK // (weight entries of the batch) steps, and
# at least _MIN_CHUNK; frozen features compute a chunk's cosines at once,
# in place in the chunk's matmul result. CoherenceKlms computes its kernel
# rows per time block of at most _BLOCK steps, fewer if the block's
# (steps, runs, L, capacity) differences would exceed _CHUNK entries, and
# at least one
_CHUNK = 1 << 16
_MIN_CHUNK = 64
_BLOCK = 32

# the float32 range of the RFF engine: its largest finite value, and its
# smallest positive one (a subnormal), below which a value rounds to 0
F32_MAX = float(np.finfo(np.float32).max)  # about 3.4e38
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)  # about 1.4e-45


@dataclass(frozen=True)
class StepOutcome:
    """Pre-update prediction, its error against the observation, model size."""

    prediction: float
    error: float
    model_size: int


class DivergenceError(RuntimeError):
    """A prediction left the finite range; carries the 1-based step index."""

    def __init__(self, step: int):
        super().__init__(f"filter prediction at step {step} is not finite")
        self.step = step


def check_rate(name: str, value: float) -> float:
    """A step size as a float; raises ValueError unless it is finite and >= 0."""
    value = float(value)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_rff_rate(name: str, value: float) -> float:
    """A step size of ``AdaptiveRffLms`` as a float: finite, >= 0, and held
    by float32, that is 0 or within [F32_TINY, F32_MAX]. A smaller one would
    round to 0 and freeze its update, a larger one to inf."""
    value = check_rate(name, value)
    if value > F32_MAX or 0.0 < value < F32_TINY:
        raise ValueError(f"{name} must be 0 or within float32's range "
                         f"[{F32_TINY:.4g}, {F32_MAX:.4g}], got {value}")
    return value


def check_rff_bandwidth(bandwidth: float) -> float:
    """A bandwidth of the RFF kinds as a float: ``check_bandwidth``'s rule,
    held by float32 (at most F32_MAX), and at least 16 / F32_MAX (about
    4.7e-38). ``sample_feature_bank`` draws frequencies as standard normal
    values over the bandwidth, and numpy's ziggurat draws stay below 13.8 in
    magnitude, so above that floor every frequency stays finite once
    ``AdaptiveRffLms`` casts the bank to float32."""
    bandwidth = check_bandwidth(bandwidth)
    if not 16.0 / F32_MAX <= bandwidth <= F32_MAX:
        raise ValueError(f"bandwidth must lie within [{16.0 / F32_MAX:.4g}, {F32_MAX:.4g}] "
                         f"for the float32 RFF kinds, got {bandwidth}")
    return bandwidth


class _StreamFilter:
    """``run``, ``step`` and the stream check around a filter's time loop.

    A subclass provides ``n_runs``, ``input_dim``, its (R, width) weight
    buffer ``_weights``, whose size sets the time chunk, and the time loop
    itself (``_steps``), which steps every run on the filter's own arrays,
    diverged or not. ``run`` flags divergence as the module docstring says.
    """

    def _check_stream(self, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
        """The stream as time-major contiguous (T, R, L) inputs and (T, R)
        targets of the filter's dtype, each value finite in it."""
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if (inputs.ndim != 3 or inputs.shape[0] != self.n_runs
                or inputs.shape[2] != self.input_dim or targets.shape != inputs.shape[:2]):
            raise ValueError(
                f"expected inputs of shape ({self.n_runs}, T, {self.input_dim}) and targets "
                f"of shape ({self.n_runs}, T), got {inputs.shape} and {targets.shape}"
            )
        dtype = self._weights.dtype
        xs = np.ascontiguousarray(inputs.transpose(1, 0, 2), dtype=dtype)
        ys = np.ascontiguousarray(targets.T, dtype=dtype)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"stream (inputs, targets) must be finite in {dtype}, whose "
                             f"range is +-{np.finfo(dtype).max:.4g}")
        return xs, ys

    def step(self, x, y) -> StepOutcome:
        """``run`` over the one-step stream (x, y) of a single-run filter;
        raises ``DivergenceError`` once the run has diverged."""
        if self.n_runs != 1:
            raise ValueError(f"step takes a sample of a single-run filter, not of "
                             f"{self.n_runs} runs; run() takes their streams")
        predictions, sizes = self.run(np.asarray(x)[None, None], [[y]])
        if self.diverged_at[0]:
            raise DivergenceError(int(self.diverged_at[0]))
        prediction = float(predictions[0, 0])
        return StepOutcome(prediction, float(y) - prediction, int(sizes[0, 0]))

    @np.errstate(all="ignore")
    def run(self, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self._check_stream(inputs, targets)
        horizon, n_runs = ys.shape
        base = self.n_steps
        predictions = np.empty((horizon, n_runs), dtype=xs.dtype)
        sizes = np.empty((horizon, n_runs), dtype=int)
        start = 0
        while start < horizon and not self.diverged_at.all():
            stop = min(horizon, start + max(_MIN_CHUNK, _CHUNK // self._weights.size))
            self._steps(xs[start:stop], ys[start:stop], predictions[start:stop], sizes[start:stop])
            bad = ~np.isfinite(predictions[start:stop])
            if bad.any() and (new := bad.any(axis=0) & (self.diverged_at == 0)).any():
                # each new run's first non-finite prediction in the chunk
                self.diverged_at[new] = base + start + 1 + np.argmax(bad[:, new], axis=0)
            start = stop
        self.n_steps = base + horizon
        if self.diverged_at.any():
            gone = (self.diverged_at > 0) & (np.arange(base + 1, base + horizon + 1)[:, None]
                                             >= self.diverged_at)
            predictions[gone] = np.nan
            sizes[gone] = 0
        return predictions.T.astype(float, copy=False), sizes.T


class AdaptiveRffLms(_StreamFilter):
    """LMS on a cosine feature expansion that also learns the features.

    Per step and run, with e the pre-update error and theta_m the m-th
    feature angle:

        weights  +=  lr_weights * e * z(x)
        freqs[m] -=  lr_freqs  * e * weights[m] * sin(theta_m) * x
        phases[m]-=  lr_phases * e * weights[m] * sin(theta_m)

    Run r starts from a float32 copy of ``banks[r]`` and zero weights; the
    banks share D and L, and each must be finite once cast. The filter
    keeps ``freqs`` (R, D, L), ``phases`` (R, D) and ``weights`` (R, D) as
    plain float32 arrays, and its step sizes pass ``check_rff_rate`` (see
    the module docstring's precision paragraph). The joint objective is not
    convex in the frequencies and phases, so a bad step size can blow the
    state up; see the module docstring for how that is caught and
    reported. With both feature step sizes zero the banks never change,
    and the features of a whole time chunk are computed at once.
    """

    def __init__(self, banks: list[FeatureBank], lr_weights: float,
                 lr_freqs: float, lr_phases: float):
        with np.errstate(over="ignore"):  # an entry past F32_MAX casts to inf
            self.freqs = np.stack([b.freqs for b in banks], dtype=np.float32)
            self.phases = np.stack([b.phases for b in banks], dtype=np.float32)
        if not (np.isfinite(self.freqs).all() and np.isfinite(self.phases).all()):
            raise ValueError(f"feature bank entries must be finite in float32, whose range "
                             f"is +-{F32_MAX:.4g}")
        self.weights = np.zeros(self.phases.shape, dtype=np.float32)
        self.lr_weights = check_rff_rate("lr_weights", lr_weights)
        self.lr_freqs = check_rff_rate("lr_freqs", lr_freqs)
        self.lr_phases = check_rff_rate("lr_phases", lr_phases)
        self.n_runs, n_features, self.input_dim = self.freqs.shape
        self.model_size = np.full(self.n_runs, n_features)
        self.n_steps = 0
        self.diverged_at = np.zeros(self.n_runs, dtype=int)

    @property
    def _weights(self) -> np.ndarray:
        return self.weights

    def _steps(self, xs, ys, predictions, sizes) -> None:
        w, freqs, phases = self.weights, self.freqs, self.phases
        # float32 scalars give the bits that the Python floats would give
        # against float32 arrays, at a cheaper ufunc call
        lr_weights, lr_freqs, lr_phases = (np.float32(v) for v in (
            self.lr_weights, self.lr_freqs, self.lr_phases))
        cos, sin, matmul, vecdot = np.cos, np.sin, np.matmul, np.vecdot
        multiply, subtract = np.multiply, np.subtract
        sizes[:] = self.model_size
        # e (R, 1) holds the error, then lr_weights * e, and dw the weight
        # update (lr_weights * e) * z
        e, dw = np.empty((w.shape[0], 1), w.dtype), np.empty_like(w)
        err = e[:, 0]
        if lr_freqs == 0.0 and lr_phases == 0.0:
            # the stacked matvec gives each (step, run) the bits of freqs @ x
            zs = matmul(freqs, xs[..., None])[..., 0]
            zs += phases
            cos(zs, out=zs)
            for z, y, p in zip(zs, ys, predictions):
                vecdot(w, z, out=p)
                multiply(subtract(y, p, out=err), lr_weights, out=err)
                w += multiply(e, z, out=dw)
            return
        theta = np.empty((*w.shape, 1), w.dtype)  # matmul's (R, D, 1) result
        angles, z, s, g, lg = theta[..., 0], *(np.empty_like(w) for _ in range(4))
        step = np.empty_like(freqs)
        columns = list(enumerate(step.transpose(2, 0, 1)))  # (i, step[:, :, i])
        for x, y, p in zip(xs[..., None], ys, predictions):
            matmul(freqs, x, out=theta)
            angles += phases
            cos(angles, out=z)
            vecdot(w, z, out=p)
            subtract(y, p, out=err)
            # pre-update weights drive the feature gradients: g = (e * w) * sin
            multiply(multiply(e, w, out=g), sin(angles, out=s), out=g)
            # freqs[:, :, i] -= (lr_freqs * g) * x_i for each coordinate i,
            # built in one buffer so that numpy loops over D, not L
            multiply(g, lr_freqs, out=lg)
            for i, column in columns:
                multiply(lg, x[:, i], out=column)
            freqs -= step
            phases -= multiply(g, lr_phases, out=lg)
            w += multiply(multiply(e, lr_weights, out=e), z, out=dw)


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
    dictionary size, and ``weights`` and ``centers`` the active parts as
    lists of per-run arrays.
    """

    def __init__(self, bandwidth: float, coherence_threshold: float,
                 lr_weights: float, input_dim: int, n_runs: int = 1):
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {n_runs}")
        self.bandwidth = check_bandwidth(bandwidth)
        self.coherence_threshold = check_threshold(coherence_threshold)
        self.lr_weights = check_rate("lr_weights", lr_weights)
        self.input_dim = input_dim
        self.n_runs = n_runs
        self._centers = np.full((n_runs, input_dim, 16), np.inf)
        self._weights = np.zeros((n_runs, 16))
        self.sizes = np.zeros(n_runs, dtype=int)
        self.n_steps = 0
        self.diverged_at = np.zeros(n_runs, dtype=int)

    def _active(self, buffer: np.ndarray) -> list[np.ndarray]:
        return [buffer[r, :size] for r, size in enumerate(self.sizes.tolist())]

    @property
    def model_size(self) -> np.ndarray:
        return self.sizes.copy()

    @property
    def weights(self) -> list[np.ndarray]:
        return self._active(self._weights)

    @property
    def centers(self) -> list[np.ndarray]:
        return self._active(self._centers.transpose(0, 2, 1))

    def _steps(self, xs, ys, predictions, sizes) -> None:
        w, centers, size = self._weights, self._centers, self.sizes
        threshold, lr = self.coherence_threshold, self.lr_weights
        scale = 2.0 * self.bandwidth**2
        add, multiply, subtract = np.add.reduce, np.multiply, np.subtract
        horizon, n_runs, dim = xs.shape
        # e (R, 1) holds the error, then lr * e, and wk w * k, then (lr * e) * k
        e, wk = np.empty((n_runs, 1)), np.empty(w.shape)
        err = e[:, 0]
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
                        # double the buffers
                        cap = w.shape[1]
                        w = self._weights = np.pad(w, ((0, 0), (0, cap)))
                        centers = self._centers = np.pad(centers, ((0, 0), (0, 0), (0, cap)),
                                                         constant_values=np.inf)
                        ks = np.pad(ks, ((0, 0), (0, 0), (0, cap)))
                        wk = np.empty(w.shape)
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
                k, p = ks[j], predictions[t]
                add(multiply(w, k, out=wk), axis=1, out=p)
                multiply(subtract(ys[t], p, out=err), lr, out=err)
                w += multiply(e, k, out=wk)
            start = stop
