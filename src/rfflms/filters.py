"""Streaming kernel LMS filters, each a batch of independent runs.

Two classes implement the three filter kinds. ``AdaptiveRffLms`` runs
both RFF kinds: ``rff`` is ``AdaptiveRffLms`` with zero frequency and
phase step sizes. ``CoherenceKlms`` runs ``coherence-klms``. Both share
one step contract: consume a sample (x, y), predict y from x, then
update their state by one stochastic gradient step on the squared error
of that pre-update prediction. A step with zero error leaves the state
untouched, and any learning rate may be zero to freeze the corresponding
update.

Runs. A filter holds the state of R >= 1 independent runs that advance
in lockstep: ``AdaptiveRffLms`` is built from one feature bank per run,
whose shapes it checks once, ``CoherenceKlms`` from ``n_runs``.
``CoherenceKlms``'s runs share their step size. Each of
``AdaptiveRffLms``'s three step sizes is one value for every run or one
per run, so runs of different specs can share a filter: a run whose two
feature step sizes are both 0 is frozen, and the adapting runs come
first. Its ``n_streams`` S, which divides R, is the number of streams
that its runs read, R by default: run i reads stream i % S, so the runs
of several specs of one D, each spec's S runs in consecutive rows, read
the specs' shared streams. Every computation is per run, so a run's
results are bit-for-bit the same whichever runs share its batch.

Both classes step through streams with one method, ``run(inputs,
targets)``, the only online one. It takes the filter's streams, inputs
(S, T, L) and targets (S, T), checks them for shape and finiteness once
per call, and returns the (R, T) float64 pre-update predictions. The
state carries over between calls, so running a stream in pieces gives
bit-for-bit what one call over the whole stream gives; one sample (x, y)
of a one-stream filter is ``run(x[None, None], [[y]])``. Model size is
state, not output: ``model_size`` holds each run's size, D for an RFF
run, and ``CoherenceKlms.admitted_at`` each center's admission step,
from which its size after any step is counted.

Divergence. A run diverges at its first step whose prediction is not
finite; steps are global and 1-based, counted over every step the filter
has taken (``n_steps`` before the call plus the position in the stream).
A non-finite state always gives a non-finite prediction on a finite
input, so every broken state shows in the next prediction: a run whose
update overflowed is flagged one step later, and one whose prediction
overflowed from a finite state at that step. The steps of a time block
test nothing; the block's predictions are tested at once afterwards. A
break on a call's last update is thus flagged at the next call's first
step, and a run that breaks on the last update of its stream keeps
finite predictions throughout. A diverged run keeps its slot: its step
goes to ``diverged_at`` (0 for a live run) and it is stepped on with the
other runs, whose bits it cannot touch, until every run of the batch has
diverged; the call then takes no further step. Its state after that step
is not defined. At the end of the call its predictions from that step on
are set to NaN. ``diverged_at`` is the only report of divergence:
``run`` does not raise for it, and overflow on the way there raises no
numpy warning.

``AdaptiveRffLms`` additionally descends on the feature frequencies and
phases. Within one step every right-hand side uses the pre-update state
(a simultaneous update): the fresh weights are not fed into the frequency
or phase updates.

Buffers. A step works on arrays of a few dozen to a few hundred entries,
so its cost is the per-call overhead of its 6 to 20 numpy operations,
whatever the number of runs, and allocating a fresh result is a large
part of that. The loop over a time block therefore allocates its working
arrays (angles, features, error, gradient, updates) once, and every
per-step operation writes into one of them with ``out=``. An
``AdaptiveRffLms`` block computes its frozen runs' cosines at once, in a
(steps, R, D) buffer whose adapting rows each step fills; with no frozen
run, each step refills one (R, D) buffer. Each step makes one call over
all runs for each of the prediction (``vecdot``), the error, one
broadcast of the error to (R, D) and the weight update, and the adapting
runs' calls over their leading rows. The step sizes are (R, D) float32
arrays, built once per block, so no per-step call takes a scalar, and no
call broadcasts the (R, 1) error but that one. ``CoherenceKlms`` doubles
its capacity before a block, never inside one. The operations and their
order are those of the plain expressions, so the bits are too.

Precision. ``AdaptiveRffLms`` computes in float32: its ``freqs``,
``phases`` and ``weights``, every buffer of its time loop and its copy of
the stream, which ``run`` casts once per call, and its step sizes, which
the loop casts to float32 arrays. Its cost is the cosines and
sines of the feature angles, and float32 ``np.cos`` and ``np.sin`` cost a
small fraction of the float64 ones; at the presets' step sizes the
steady-state EMSE is within 0.01 dB of float64's. What float32 cannot hold is
refused at the boundary, never met inside a run: a stream value beyond
its range (``run`` raises ``ValueError``), a bank that is not finite once
cast (the constructor raises), a step size that float32 would round to 0
or inf (``check_rate``) and, at config validation, a bandwidth whose
sampled bank would not fit (``kernels.check_bandwidth``). ``CoherenceKlms``
stays float64: its admission test compares kernel peaks with the
threshold, and rounding them would change which inputs it admits. Both
return float64 predictions, so the EMSE, the aggregation and the export
downstream are float64 throughout.
"""

from __future__ import annotations

import numpy as np

# phase_angles, coherence_admit and kernelized_input stay importable from
# this module: perfbench/tracing.py patches them under these names
from .features import phase_angles  # noqa: F401
from .kernels import coherence_admit, kernelized_input  # noqa: F401
from .kernels import check_bandwidth, check_threshold, kernel_rows

# run steps through a stream one time block per _steps call and tests
# each block's predictions, which flag divergence, after it; an engine's
# _block_length sets the block. AdaptiveRffLms takes _CHUNK // (weight
# entries of the batch) steps, and at least _MIN_CHUNK: frozen runs
# compute a block's cosines at once, in place in its matmul result.
# CoherenceKlms takes at most _BLOCK steps, fewer if the block's (steps,
# runs, L, capacity) kernel differences would exceed _CHUNK entries, and
# at least one
_CHUNK = 1 << 16
_MIN_CHUNK = 64
_BLOCK = 32


def check_rate(name: str, value: float, dtype) -> float:
    """A step size as a float; raises ValueError unless the engine's ``dtype``
    holds it: 0 or within [smallest subnormal, max]. A smaller one would
    round to 0 and freeze its update, a larger one to inf."""
    value = float(value)
    info = np.finfo(dtype)
    tiny, big = float(info.smallest_subnormal), float(info.max)
    if not (value == 0.0 or tiny <= value <= big):
        raise ValueError(f"{name} must be 0 or within {info.dtype}'s range "
                         f"[{tiny:.4g}, {big:.4g}], got {value}")
    return value


class _StreamFilter:
    """``run``, the one online method, and its stream check around a
    filter's time loop.

    A subclass states its ``dtype``, sets ``input_dim``, calls ``_start_runs``
    and provides ``_block_length`` and ``_steps``: a time block's steps, and
    one block's loop over every run, diverged or not. ``run`` is the one loop
    over blocks and flags divergence as the module docstring says.
    """

    def _start_runs(self, model_size: np.ndarray, n_streams: int | None = None) -> None:
        """Bookkeeping of runs that have taken no step, one per ``model_size``
        entry, reading ``n_streams`` streams, by default one per run."""
        self.n_runs = model_size.size
        self.n_streams = self.n_runs if n_streams is None else n_streams
        if self.n_streams < 1 or self.n_runs % self.n_streams:
            raise ValueError(f"n_streams must be >= 1 and divide the {self.n_runs} runs, "
                             f"got {n_streams}")
        self.model_size = model_size
        self.n_steps = 0
        self.diverged_at = np.zeros(self.n_runs, dtype=int)

    def _check_stream(self, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
        """The stream as time-major contiguous (T, S, L) inputs and (T, S)
        targets of the filter's dtype, S = ``n_streams``, each value finite
        in it."""
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        n_streams = self.n_streams
        if (inputs.ndim != 3 or inputs.shape[0] != n_streams
                or inputs.shape[2] != self.input_dim or targets.shape != inputs.shape[:2]):
            raise ValueError(
                f"expected inputs of shape ({n_streams}, T, {self.input_dim}) and targets "
                f"of shape ({n_streams}, T), got {inputs.shape} and {targets.shape}"
            )
        dtype = self.dtype
        xs = np.ascontiguousarray(inputs.transpose(1, 0, 2), dtype=dtype)
        ys = np.ascontiguousarray(targets.T, dtype=dtype)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"stream (inputs, targets) must be finite in {dtype}, whose "
                             f"range is +-{np.finfo(dtype).max:.4g}")
        return xs, ys

    @np.errstate(all="ignore")
    def run(self, inputs, targets) -> np.ndarray:
        xs, ys = self._check_stream(inputs, targets)
        horizon, n_runs = len(ys), self.n_runs
        base = self.n_steps
        # time-major float64 predictions; a block steps into a buffer of the dtype
        predictions = np.empty((horizon, n_runs))
        start, done = 0, self.diverged_at.all()
        while start < horizon and not done:
            stop = min(horizon, start + self._block_length())
            block = np.empty((stop - start, n_runs), xs.dtype)
            self.n_steps = base + start  # the steps before the block's first
            self._steps(xs[start:stop], ys[start:stop], block)
            predictions[start:stop] = block
            if not np.isfinite(block).all():
                bad = ~np.isfinite(block)
                if (new := bad.any(axis=0) & (self.diverged_at == 0)).any():
                    # each new run's first non-finite prediction in the block
                    self.diverged_at[new] = base + start + 1 + np.argmax(bad[:, new], axis=0)
                    done = self.diverged_at.all()
            start = stop
        del xs, ys  # the cast stream, before the predictions are masked
        self.n_steps = base + horizon
        if self.diverged_at.any():
            gone = (self.diverged_at > 0) & (np.arange(base + 1, base + horizon + 1)[:, None]
                                             >= self.diverged_at)
            predictions[gone] = np.nan
        return predictions.T


class AdaptiveRffLms(_StreamFilter):
    """LMS on a cosine feature expansion that also learns the features.

    Per step and run, with e the pre-update error and theta_m the m-th
    feature angle:

        weights  +=  lr_weights * e * z(x)
        freqs[m] -=  lr_freqs  * e * weights[m] * sin(theta_m) * x
        phases[m]-=  lr_phases * e * weights[m] * sin(theta_m)

    Run r starts from a float32 copy of its bank, ``freqs[r]`` (D, L) and
    ``phases[r]`` (D,), and zero weights. ``freqs`` and ``phases`` hold one
    bank per run, as sequences or as stacked (R, D, L) and (R, D) arrays;
    the banks share D >= 1 and L >= 1, and each must be finite once cast.
    The filter keeps ``freqs``, ``phases`` and ``weights`` (R, D) as plain
    float32 arrays. Each step size is a scalar that every run shares or a
    sequence of one per run, kept as a float or as an (R,) float64 array;
    each value passes ``check_rate`` in float32 (see the module docstring's
    precision paragraph). The joint objective is not convex in the
    frequencies and phases, so a bad step size can blow the state up; see
    the module docstring for how that is caught and reported.

    A run whose two feature step sizes are both zero is frozen: its bank
    never changes, and the features of a whole time block are computed at
    once. The runs that adapt their features come first: a frozen run
    before an adapting one raises ``ValueError``.

    ``n_streams``, R by default, is the number of streams that ``run``
    takes; it must divide R, and run r reads stream r % ``n_streams`` (see
    the module docstring's runs paragraph).
    """

    dtype = np.dtype(np.float32)

    def __init__(self, freqs, phases, lr_weights, lr_freqs, lr_phases, *,
                 n_streams: int | None = None):
        with np.errstate(over="ignore"):  # an entry past the dtype's max casts to inf
            self.freqs = np.stack(freqs, dtype=self.dtype)
            self.phases = np.stack(phases, dtype=self.dtype)
        if (self.freqs.ndim != 3 or 0 in self.freqs.shape
                or self.phases.shape != self.freqs.shape[:2]):
            raise ValueError(f"expected freqs of shape (R, D, L) and phases of shape (R, D), "
                             f"none of them 0, got {self.freqs.shape} and {self.phases.shape}")
        if not (np.isfinite(self.freqs).all() and np.isfinite(self.phases).all()):
            raise ValueError(f"feature bank entries must be finite in {self.dtype}, whose "
                             f"range is +-{np.finfo(self.dtype).max:.4g}")
        n_runs, n_features, self.input_dim = self.freqs.shape
        self.weights = np.zeros(self.phases.shape, dtype=self.dtype)
        self.lr_weights, self.lr_freqs, self.lr_phases = (
            self._check_rates(name, value, n_runs) for name, value in
            (("lr_weights", lr_weights), ("lr_freqs", lr_freqs), ("lr_phases", lr_phases)))
        frozen = np.broadcast_to((self.lr_freqs == 0.0) & (self.lr_phases == 0.0), n_runs)
        self._n_adapting = n_runs - int(frozen.sum())
        if frozen[:self._n_adapting].any():
            raise ValueError("the runs whose lr_freqs and lr_phases are both 0 must follow "
                             "every other run")
        self._start_runs(np.full(n_runs, n_features), n_streams)

    def _check_rates(self, name: str, value, n_runs: int):
        """A step size as a float, or one per run as an (R,) float64 array."""
        if np.ndim(value) == 0:
            return check_rate(name, value, self.dtype)
        values = [check_rate(f"{name}[{r}]", v, self.dtype) for r, v in enumerate(value)]
        if len(values) != n_runs:
            raise ValueError(f"{name} must be a scalar or one value per run ({n_runs}), "
                             f"got {len(values)} values")
        return np.array(values)

    def _block_length(self) -> int:
        return max(_MIN_CHUNK, _CHUNK // self.weights.size)

    def _steps(self, xs, ys, predictions) -> None:
        w, freqs, phases = self.weights, self.freqs, self.phases
        na, n_features = self._n_adapting, w.shape[1]
        if (reps := len(w) // xs.shape[1]) > 1:  # runs share streams: repeat the block's
            xs, ys = np.tile(xs, (1, reps, 1)), np.tile(ys, (1, reps))

        def leading_rows(rate, n):
            # the step size of the first n runs as an (n, D) float32 array:
            # each product is the float32 scalar's, at a same-shape ufunc call
            rate = np.asarray(rate, w.dtype).reshape(-1, 1)[:n]
            return np.array(np.broadcast_to(rate, (n, n_features)))

        lr_weights = leading_rows(self.lr_weights, len(w))
        cos, sin, matmul, vecdot = np.cos, np.sin, np.matmul, np.vecdot
        multiply, subtract = np.multiply, np.subtract
        # err (R,) holds the error and e its (R, 1) column; E holds e broadcast
        # to (R, D), then lr_weights * e and the weight update (lr_weights * e) * z
        err, E = np.empty(len(w), w.dtype), np.empty_like(w)
        e = err[:, None]
        if na == len(w):  # no frozen run: one (R, D) buffer, a zero stride over the steps
            z = np.empty_like(w)
            zs = np.lib.stride_tricks.as_strided(z, (len(xs), *w.shape), (0, *z.strides))
        else:
            # the block's cosines: the frozen runs' at once, in place in their
            # stacked matvec, which gives each (step, run) the bits of freqs @ x
            zs = np.empty((len(xs), *w.shape, 1), w.dtype)
            frozen = zs[:, na:]
            matmul(freqs[na:], xs[:, na:, :, None], out=frozen)
            frozen += phases[na:, :, None]
            cos(frozen, out=frozen)
            zs = zs[..., 0]
        if not na:
            for z, y, p in zip(zs, ys, predictions):
                vecdot(w, z, out=p)
                subtract(y, p, out=err)
                E[...] = e
                w += multiply(multiply(E, lr_weights, out=E), z, out=E)
            return
        # the adapting runs lead: their state and buffers are views of the
        # leading rows, and each step writes their cosines to the block's
        lr_freqs, lr_phases = (leading_rows(rate, na) for rate in (self.lr_freqs, self.lr_phases))
        freqs, phases, wa, Ea = freqs[:na], phases[:na], w[:na], E[:na]
        theta = np.empty((*wa.shape, 1), w.dtype)  # matmul's (Ra, D, 1) result
        angles, s, g, lg = theta[..., 0], *(np.empty_like(wa) for _ in range(3))
        step = np.empty_like(freqs)
        columns = list(enumerate(step.transpose(2, 0, 1)))  # (i, step[:, :, i])
        for x, y, z, za, p in zip(xs[:, :na, :, None], ys, zs, zs[:, :na], predictions):
            matmul(freqs, x, out=theta)
            angles += phases
            cos(angles, out=za)
            vecdot(w, z, out=p)
            subtract(y, p, out=err)
            E[...] = e
            # pre-update weights drive the feature gradients: g = (e * w) * sin
            multiply(multiply(Ea, wa, out=g), sin(angles, out=s), out=g)
            # freqs[:, :, i] -= (lr_freqs * g) * x_i for each coordinate i,
            # built in one buffer so that numpy loops over D, not L
            multiply(g, lr_freqs, out=lg)
            for i, column in columns:
                multiply(lg, x[:, i], out=column)
            freqs -= step
            phases -= multiply(g, lr_phases, out=lg)
            w += multiply(multiply(E, lr_weights, out=E), z, out=E)


class CoherenceKlms(_StreamFilter):
    """Gaussian kernel LMS over a dictionary grown online by the coherence rule.

    Each step first offers x to the dictionary (admitted centers enter at
    weight zero, so the prediction is continuous across admissions), then
    predicts from the kernelized input and LMS-updates all active weights.
    The admission test's kernel vector is the one the step predicts with:
    an admitted center's own entry is exactly 1.0.

    The kernel vectors and the admissions do not depend on the weights, and
    the dictionary changes only on admission, so ``kernels.kernel_rows``
    computes the vectors for a whole time block at once, with their peaks,
    over the columns of the block's widest dictionary; the columns past it
    are zero. A block first settles its admissions, in step order: each
    writes the new center's column, a second ``kernel_rows`` call, into the
    block's later rows and raises their peaks to it. Then the block steps,
    predicting and updating with no branch. Each kernel entry takes the
    same operations whatever the block, so the block length changes no bit.

    Each run's centers fill the leading columns of an (L, capacity) buffer
    padded with +inf, whose kernel value is exactly 0, and its weights the
    leading entries of a zero-padded (capacity,) buffer. The capacity is a
    power of two, at least 16, shared by the batch; before a block, never
    inside one, it doubles until it holds each run's size plus its steps
    novel at block start, the steps that may admit. The prediction sums
    ``weights * kernel`` over the whole buffer; numpy's pairwise sum over a
    power-of-two length adds the padding in whole blocks of zeros, so a
    run's prediction is the same bits whatever capacity its batch needs.
    ``model_size`` holds each run's dictionary size, and ``weights`` and
    ``centers`` the active parts as lists of per-run arrays; ``admitted_at``,
    zero-padded like the weights, each center's global 1-based admission step.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, bandwidth: float, coherence_threshold: float,
                 lr_weights: float, input_dim: int, n_runs: int = 1):
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {n_runs}")
        self.bandwidth = check_bandwidth(bandwidth, self.dtype)
        self.coherence_threshold = check_threshold(coherence_threshold)
        self.lr_weights = check_rate("lr_weights", lr_weights, self.dtype)
        self.input_dim = input_dim
        self._centers = np.full((n_runs, input_dim, 16), np.inf, self.dtype)
        self._weights = np.zeros((n_runs, 16), self.dtype)
        self.admitted_at = np.zeros((n_runs, 16), dtype=int)
        self._start_runs(np.zeros(n_runs, dtype=int))

    def _active(self, buffer: np.ndarray) -> list[np.ndarray]:
        return [buffer[r, :size] for r, size in enumerate(self.model_size.tolist())]

    @property
    def weights(self) -> list[np.ndarray]:
        return self._active(self._weights)

    @property
    def centers(self) -> list[np.ndarray]:
        return self._active(self._centers.transpose(0, 2, 1))

    def _block_length(self) -> int:
        return max(1, min(_BLOCK, _CHUNK // self._centers.size))

    def _steps(self, xs, ys, predictions) -> None:
        size, threshold = self.model_size, self.coherence_threshold
        add, multiply, subtract = np.add.reduce, np.multiply, np.subtract
        # rows over the live columns, the widest run's centers; the +inf
        # padding past them would give exact zeros
        live = size.max()
        rows = kernel_rows(self._centers[..., :live], xs, self.bandwidth)
        peaks = np.maximum.reduce(rows, axis=2, initial=0.0)
        # only a step novel at block start may admit: a later admission can
        # only raise its peaks. The buffers grow to the least power of two
        # that holds every run's novel steps
        novel = ~(peaks > threshold)
        admitting = np.flatnonzero(novel.any(axis=1)).tolist()
        cap = self._weights.shape[1]
        if admitting and (need := int((size + novel.sum(axis=0)).max())) > cap:
            pad = (1 << (need - 1).bit_length()) - cap
            self._weights = np.pad(self._weights, ((0, 0), (0, pad)))
            self.admitted_at = np.pad(self.admitted_at, ((0, 0), (0, pad)))
            self._centers = np.pad(self._centers, ((0, 0), (0, 0), (0, pad)),
                                   constant_values=np.inf)
        w, centers = self._weights, self._centers
        ks = np.zeros((*peaks.shape, w.shape[1]), self.dtype)
        ks[..., :live] = rows
        # admissions first: they read the inputs and the dictionary, never a weight
        for j in admitting:
            if not (admit := np.flatnonzero(~(peaks[j] > threshold))).size:
                continue
            slot = size[admit]
            x = xs[j, admit]
            centers[admit, :, slot] = x
            ks[j, admit, slot] = 1.0
            self.admitted_at[admit, slot] = self.n_steps + j + 1
            size[admit] += 1
            # the new center's column for the block's later steps
            column = kernel_rows(x[:, :, None], xs[j + 1:, admit], self.bandwidth)[..., 0]
            ks[j + 1:, admit, slot] = column
            later = peaks[j + 1:]
            later[:, admit] = np.maximum(later[:, admit], column)
        # e (R, 1) holds the error, le lr * e, and wk w * k, then (lr * e) * k;
        # a 0-d lr gives the Python float's products at a cheaper ufunc call
        lr = np.array(self.lr_weights)
        e, wk = np.empty((w.shape[0], 1), self.dtype), np.empty_like(w)
        err, le = e[:, 0], np.empty_like(e)
        for k, y, p in zip(ks, ys, predictions):
            add(multiply(w, k, out=wk), axis=1, out=p)
            subtract(y, p, out=err)
            multiply(e, lr, out=le)
            w += multiply(le, k, out=wk)
