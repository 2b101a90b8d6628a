"""Monte Carlo benchmark driver.

Each run derives its own stream and feature-bank seeds from the root seed
and the run index, so results are reproducible bit-for-bit regardless of
how the runs are split into batches or how many workers execute them.
When both RFF-family filters appear in one config with the same bank
settings they start from identical banks, giving a paired comparison.

One call of ``run_experiments`` computes each filter unit once. A
filter's curves over a config's runs depend only on its unit: its
``FilterSpec`` plus the config's ``plant``, ``horizon``, ``seed``, ``runs``
and ``steady_window``. A config's batches run only the filters whose unit
no earlier config of the call has, and a config with no such filter runs
no batch; the other filters reuse the earlier config's reduction. So a
sweep's points share every filter that the swept field does not touch.
The call's worker count is capped at the total run count and the CPU
count. Each config's runs are split evenly into contiguous batches of at
most ``MAX_HORIZON`` run-steps and ``MAX_FEATURES`` run-features (runs
times the config's largest ``n_features``), one run at least: a batch
holds what ``rfflms.config`` lets one run hold. With
``share = ceil(workers / configs)``, the batch count is the smallest
multiple of ``share`` that allows this, capped at the config's run count.
A single experiment thus gets a multiple of the worker count, and a
sweep of small experiments one batch each. With one worker the
batches run one after the other in this process, and no pool code is
imported: ``import rfflms`` and a serial call load neither
``concurrent.futures`` nor ``multiprocessing``. Otherwise ``pool.map``
submits every batch of the call at once to one pool of that many
processes, which lives for the whole call, and the results are still
reduced in task order: a finished batch waits in this process until its
turn. A call that fails or is closed early cancels every batch that no
worker has taken yet. Besides the batches they run, the workers hold up
to ``workers + 1`` taken ones in the pool's queue, and these still finish:
up to ``2 * workers + 1`` batches past those already done. With 2 workers,
a call of 9 batches whose first one fails runs 5 or 6 of them. Within a
batch each engine is built once, from its specs, for all of their runs:
a ``coherence-klms`` spec is an engine of its own, and the RFF specs of
one ``n_features`` D share one ``AdaptiveRffLms`` whose rows hold their
runs, adapting specs first, at most ``max(runs, MAX_FEATURES // D)`` rows
an engine, with the batch's run count as its ``n_streams``. Each engine
consumes the batch's streams, (R, T, L) inputs and (R, T) targets, in
one ``run`` call (see ``rfflms.filters``): time is the only sequential
axis, and the specs of an engine pay its per-step calls once. A spec's
rows give the bits that it gives alone. The early stop at divergence is
per engine, so a spec that diverged on every run is stepped on with its
engine's other specs, which costs time and no bytes. On a plant that reads
``change_step``, the batch that holds run 0 splits an RFF engine's call
at the change step to record each spec's run 0 frequency bank there. The
EMSE curves are then computed from the clean targets and the returned
predictions, spec by spec.

Divergence policy. A filter's run is usable iff its EMSE curve is finite
at every step and its mean EMSE over the steady window is at most the
run's mean clean power there, the EMSE of predicting 0. This covers a run
that the filter flags as diverged (see the divergence paragraph of
``rfflms.filters``), a run whose prediction stays finite while its
squared error overflows, and a finite run that does worse than
predicting 0. Run 0's ``change`` and ``final`` bank snapshots are taken
only of a finite bank: ``change`` if the filter has not flagged run 0 by
the change step, ``final`` if run 0 is usable. An unusable run of a filter
is listed in ``RunArtifacts.diverged`` and left out of that filter's mean
curves, while the other filters' curves of the same run, and the other
runs of the batch, still count. The experiment raises ``ExperimentError``
in exactly two cases:

- more than ``max_divergence_fraction * runs`` runs are bad, where a run
  is bad if any of its filters diverged;
- no filter has a usable run.

A filter that diverged on every run (allowed only when the fraction
permits it) keeps its run indices in ``diverged`` and its initial-bank
snapshot, but has no mean curve in ``emse`` or ``model_size``. Its
``RunArtifacts.summary`` row has only ``runs_used`` 0: on export it has no
column in the curve CSVs, its ``summary.csv`` row has empty steady-state
and model-size cells, and the CLI table reads "diverged".
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (MAX_FEATURES, MAX_HORIZON, MAX_RUNS, PLANT_FIELDS, ConfigError,
                     ExperimentConfig, FilterSpec, config_to_dict)
from .features import sample_feature_bank
from .filters import AdaptiveRffLms, CoherenceKlms
from .metrics import steady_state_emse, to_db
from .seeding import derive_seed
from .systems import gen_nonstationary_stream, gen_stationary_stream

SNAPSHOT_STAGES = ("initial", "change", "final")
# the summary values of a filter with a usable run, as summary.csv names them
SUMMARY_VALUES = ("steady_state_emse", "steady_state_emse_db", "final_model_size")


class ExperimentError(RuntimeError):
    pass


@dataclass
class RunArtifacts:
    """Everything one experiment produces, before any file is written.

    ``emse`` and ``model_size`` hold each filter's mean curves over its
    usable runs, as plain arrays, for the labels with at least one usable
    run; ``diverged`` lists every label's unusable runs and ``snapshots``
    run 0's frequency banks. Everything else is derived by ``summary``.
    """

    config: ExperimentConfig
    emse: dict[str, np.ndarray]
    model_size: dict[str, np.ndarray]
    diverged: dict[str, list[int]]
    snapshots: dict[str, dict[str, np.ndarray]]

    def summary(self) -> dict[str, dict]:
        """Each filter's summary row, by label in config order.

        A row has ``runs_used`` and, for a filter with a usable run, the
        ``SUMMARY_VALUES``: the steady-state EMSE (the mean curve's last
        ``steady_window`` steps), the same in dB and the final mean model
        size. A filter with no usable run has ``runs_used`` 0 and no value.
        """
        rows = {}
        for f in self.config.filters:
            lab = f.column
            rows[lab] = {"runs_used": self.config.runs - len(self.diverged[lab])}
            if lab in self.emse:
                steady = steady_state_emse(self.emse[lab], self.config.steady_window)
                rows[lab].update(steady_state_emse=steady, steady_state_emse_db=to_db(steady),
                                 final_model_size=float(self.model_size[lab][-1]))
        return rows


def make_stream(cfg: ExperimentConfig, stream_seed: int) -> tuple[np.ndarray, ...]:
    """One run's ``(inputs, targets, clean)`` from the config's plant."""
    gen = gen_stationary_stream if cfg.plant.kind == "stationary" else gen_nonstationary_stream
    return gen(cfg.plant, cfg.horizon, stream_seed)


def _build_engine(specs: list[FilterSpec], input_dim: int, bank_seeds):
    """One engine over a batch of runs, one per bank seed, for one of
    ``_engines``' spec lists: a ``coherence-klms`` spec's own filter, or one
    ``AdaptiveRffLms`` whose rows hold the RFF specs' runs, spec j's run r
    in row j * R + r, each spec's step sizes on its rows. RFF-family banks
    come from the seeds, so matching specs share identical initial banks
    within a run."""
    n = len(bank_seeds)
    if specs[0].kind == "coherence-klms":
        [spec] = specs
        return CoherenceKlms(spec.bandwidth, spec.coherence_threshold,
                             spec.lr_weights, input_dim, n_runs=n)
    # an rff spec has zero feature step sizes (FilterSpec.validate), which
    # freezes the banks
    banks = [sample_feature_bank(spec.bandwidth, spec.n_features, input_dim, seed)
             for spec in specs for seed in bank_seeds]
    rates = (np.repeat([getattr(spec, name) for spec in specs], n)
             for name in ("lr_weights", "lr_freqs", "lr_phases"))
    return AdaptiveRffLms(*zip(*banks), *rates, n_streams=n)


def build_filter(spec: FilterSpec, input_dim: int, bank_seeds):
    """One spec's engine over a batch of runs, one per bank seed."""
    # not called here, but perfbench/tracing.py patches it by this name
    return _build_engine([spec], input_dim, bank_seeds)


def _engines(filters: tuple[FilterSpec, ...], n_runs: int) -> list[list[FilterSpec]]:
    """A batch's filter specs, one list per engine, in the order of the
    engine's rows: each ``coherence-klms`` spec alone, and the RFF specs of
    one ``n_features`` D, adapting ones first, at most ``max(n_runs,
    MAX_FEATURES // D)`` rows an engine. Engines come in the order of their
    first spec in ``filters``."""
    rff = {}
    for spec in filters:
        if spec.kind != "coherence-klms":
            rff.setdefault(spec.n_features, []).append(spec)
    engines = [[spec] for spec in filters if spec.kind == "coherence-klms"]
    for d, specs in rff.items():
        # frozen specs last; the sort is stable, so each kind keeps config order
        specs.sort(key=lambda spec: spec.lr_freqs == 0.0 and spec.lr_phases == 0.0)
        size = max(n_runs, MAX_FEATURES // d) // n_runs
        engines += [specs[i:i + size] for i in range(0, len(specs), size)]
    first = {spec: i for i, spec in enumerate(filters)}
    return sorted(engines, key=lambda specs: min(map(first.get, specs)))


def _run_batch(cfg: ExperimentConfig, runs: range):
    """Monte Carlo runs ``runs``: every configured filter over each run's
    fresh stream, all runs of the batch in one ``run`` call per engine.

    Each engine is built in one ``_build_engine`` call from its specs
    (``_engines``), over the batch's runs: the RFF specs of one D share
    one engine whose rows read the batch's streams.

    Yields, filter by filter: its label, its (R, T) EMSE curves, the (T,)
    integer sum of its usable runs' model sizes (D, or the count of centers
    admitted up to each step), the (R,) mask of those runs (see the
    divergence policy in the module docstring) and run 0's bank snapshots
    (None unless the batch holds run 0 and the filter has a bank).
    """
    streams = [make_stream(cfg, derive_seed(cfg.seed, r, "stream")) for r in runs]
    # (R, T, ...) views of time-major arrays, which run() steps through without copying
    inputs, targets, clean = (np.stack(a, axis=1).swapaxes(0, 1) for a in zip(*streams))
    del streams
    # the steady-window EMSE of predicting 0, which a usable run must not exceed
    clean_power = (clean[:, -cfg.steady_window:] ** 2).mean(axis=1)
    bank_seeds = [derive_seed(cfg.seed, r, "bank") for r in runs]
    n = len(runs)
    take_snapshots = runs[0] == 0
    change_step = cfg.plant.change_step if "change_step" in PLANT_FIELDS[cfg.plant.kind] else None

    for specs in _engines(cfg.filters, n):
        filt = _build_engine(specs, inputs.shape[2], bank_seeds)
        # spec j's runs are the engine's rows [j * n, (j + 1) * n), its run 0 row j * n
        firsts = range(0, len(specs) * n, n)
        snapshots = [None] * len(specs)
        if take_snapshots and isinstance(filt, AdaptiveRffLms):
            snapshots = [{"initial": filt.freqs[r].copy()} for r in firsts]
        # the batch of run 0 stops at the change step to record its banks there
        split = change_step if snapshots[0] is not None else None
        if split is None:
            preds = filt.run(inputs, targets)
        else:
            preds = np.empty((cfg.horizon, len(filt.weights))).T  # time-major, as run returns it
            preds[:, :split] = filt.run(inputs[:, :split], targets[:, :split])
            for r, snaps in zip(firsts, snapshots):
                if not filt.diverged_at[r] and np.isfinite(filt.freqs[r]).all():
                    snaps["change"] = filt.freqs[r].copy()
            preds[:, split:] = filt.run(inputs[:, split:], targets[:, split:])
        for spec, r, snaps in zip(specs, firsts, snapshots):
            emse = preds[r:r + n]  # each spec's EMSE overwrites its predictions
            with np.errstate(all="ignore"):  # d * d can overflow for a finite prediction
                np.subtract(clean, emse, out=emse)
                emse *= emse
                steady = emse[:, -cfg.steady_window:].mean(axis=1)
            usable = np.isfinite(emse).all(axis=1) & (steady <= clean_power)
            if snaps is not None and usable[0] and np.isfinite(filt.freqs[r]).all():
                snaps["final"] = filt.freqs[r].copy()
            if isinstance(filt, CoherenceKlms):  # one spec, rows [0, n)
                admitted = filt.admitted_at[usable].ravel()
                size_sum = np.bincount(admitted, minlength=cfg.horizon + 1)[1:].cumsum()
            else:
                size_sum = np.full(cfg.horizon, spec.n_features * usable.sum())
            yield spec.column, emse, size_sum, usable, snaps
        del preds, emse  # before the next engine's predictions


def _batch_results(cfg: ExperimentConfig, runs: range) -> list[tuple]:
    """``_run_batch`` as a list, for a pool worker to return."""
    return list(_run_batch(cfg, runs))


def _plan_batches(cfgs: list[ExperimentConfig], workers: int) -> tuple[int, list[list[range]]]:
    """The pool size and each config's batches for one call over ``cfgs``,
    by the rule in the module docstring."""
    # a process per core at most: the bytes do not depend on the count
    workers = min(workers, sum(cfg.runs for cfg in cfgs), os.cpu_count() or 1)
    share = -(-workers // max(len(cfgs), 1))
    plans = []
    for cfg in cfgs:
        n_runs = cfg.runs
        # a batch holds its runs' streams and feature banks at once
        features = max(1, *(f.n_features for f in cfg.filters))
        cap = max(1, min(MAX_HORIZON // cfg.horizon, MAX_FEATURES // features))
        n_batches = min(share * -(-n_runs // (share * cap)), n_runs)
        bounds = [n_runs * b // n_batches for b in range(n_batches + 1)]
        plans.append([range(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    return workers, plans


def _unit(cfg: ExperimentConfig, spec: FilterSpec) -> tuple:
    """The key of a filter's unit: all that its curves over ``cfg``'s runs
    depend on (see the module docstring)."""
    return spec, cfg.plant, cfg.horizon, cfg.seed, cfg.runs, cfg.steady_window


def _aggregate(cfg: ExperimentConfig, batches: list[range], results, units: dict) -> RunArtifacts:
    """Reduce one config's batch results, in run-index order, to its
    artifacts; raises ``ExperimentError`` by the divergence policy.

    ``units`` maps each unit that an earlier config of the call reduced to
    its reduction: the emse and size sums over its usable runs, its
    unusable runs and run 0's snapshots, all (T,) or smaller. ``results``
    yields a ``_run_batch`` result per batch for the config's other filters,
    whose reductions join ``units``, and may go on past the last batch:
    ``zip`` stops at ``batches`` without drawing from it. EMSE curves join
    their sum run by run; a batch's size sum, exact integers, at once.
    """
    keys = {f.column: _unit(cfg, f) for f in cfg.filters}
    for runs, per_filter in zip(batches, results):
        for lab, emse, sizes, usable, snaps in per_filter:
            emse_sum, size_sum, unusable, unit_snaps = units.setdefault(
                keys[lab], (np.zeros(cfg.horizon), np.zeros(cfg.horizon), [], {}))
            size_sum += sizes
            for i in np.flatnonzero(usable):
                emse_sum += emse[i]
            unusable += [r for r, ok in zip(runs, usable) if not ok]
            if snaps is not None:
                unit_snaps.update(snaps)

    # copies, so that configs sharing a unit share no mutable artifact
    emse, model_size, diverged, snapshots = {}, {}, {}, {}
    for lab, key in keys.items():
        emse_sum, size_sum, unusable, snaps = units[key]
        diverged[lab] = list(unusable)
        if len(unusable) < cfg.runs:
            emse[lab] = emse_sum / (cfg.runs - len(unusable))
            model_size[lab] = size_sum / (cfg.runs - len(unusable))
        if snaps:
            snapshots[lab] = {stage: freqs.copy() for stage, freqs in snaps.items()}
    bad_runs = sorted({r for runs in diverged.values() for r in runs})
    if len(bad_runs) > cfg.max_divergence_fraction * cfg.runs:
        raise ExperimentError(
            f"{len(bad_runs)} of {cfg.runs} runs diverged "
            f"(allowed fraction {cfg.max_divergence_fraction}): runs {bad_runs[:20]}"
        )
    if not emse:
        raise ExperimentError(f"every run of every filter diverged: {list(keys)}")
    return RunArtifacts(config=cfg, emse=emse, model_size=model_size, diverged=diverged,
                        snapshots=snapshots)


def run_experiments(cfgs: list[ExperimentConfig], workers: int = 1) -> Iterator[RunArtifacts]:
    """Run every config's Monte Carlo runs; yield each config's artifacts,
    in config order, as soon as its last batch is reduced.

    Every config is validated, and their runs must sum to at most
    ``MAX_RUNS``, before the first batch runs. Each filter unit is
    computed once per call, and each config applies its own
    ``max_divergence_fraction``. The batches are planned and executed as
    the module docstring says: with ``workers`` > 1 they share one process
    pool, so later configs run while earlier ones are reduced and
    exported. Aggregation is a sequential reduction in run-index order
    whatever the batching, so the artifacts are byte-reproducible under
    each config's root seed and equal those of the config run alone. An
    ``ExperimentError`` ends the call, after the artifacts of the configs
    before it, as closing the generator early does (see the module
    docstring for the batches that still finish).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for cfg in cfgs:
        cfg.validate()
    if (total := sum(cfg.runs for cfg in cfgs)) > MAX_RUNS:
        raise ConfigError(f"runs must sum to at most {MAX_RUNS} over one call's configs, "
                          f"got {total}")
    workers, plans = _plan_batches(cfgs, workers)
    # the indices of the configs that read each unit: the first computes it,
    # and its reduction is dropped after the last
    readers = {}
    for i, cfg in enumerate(cfgs):
        for f in cfg.filters:
            readers.setdefault(_unit(cfg, f), []).append(i)
    tasks = []
    for i, cfg in enumerate(cfgs):
        new = tuple(f for f in cfg.filters if readers[_unit(cfg, f)][0] == i)
        if not new:  # a config with no new unit runs no batch
            plans[i] = []
        tasks += [(dataclasses.replace(cfg, filters=new), runs) for runs in plans[i]]
    units = {}
    pool = None
    if workers > 1:
        # imported here: a serial call loads no pool code
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        if pool is None:
            # batch by batch, and a filter's curves are summed before the next
            # filter runs
            results = (_run_batch(cfg, runs) for cfg, runs in tasks)
        else:
            results = pool.map(_batch_results, *zip(*tasks))
        for i, (cfg, batches) in enumerate(zip(cfgs, plans)):
            art = _aggregate(cfg, batches, results, units)
            for f in cfg.filters:
                if readers[_unit(cfg, f)][-1] == i:
                    del units[_unit(cfg, f)]
            yield art
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunArtifacts:
    """Run all Monte Carlo runs of one config and aggregate: ``run_experiments``
    over this config alone, so its batches are a multiple of the (capped)
    worker count."""
    [art] = run_experiments([cfg], workers)
    return art


def _write_curve_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    # one %-format per row, under half of csv.writer's time on a long
    # curve: the cells read as summary.csv's .12g ones, with csv.writer's \r\n
    # line ending
    row = "%d" + ",%.12g" * len(columns) + "\r\n"
    cells = zip(range(columns[0].shape[0]), *(col.tolist() for col in columns))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row % values for values in cells)


def export_artifacts(art: RunArtifacts, out_dir) -> dict:
    """Write plot-ready CSVs plus a JSON manifest; returns the manifest.

    Files: emse.csv (per-filter ensemble EMSE in dB), model_size.csv
    (per-filter mean model size), summary.csv (``RunArtifacts.summary``
    plus the diverged run count), omega_snapshots.csv (frequency vectors
    per stage, the float32 values of the RFF engine), manifest.json (config echo, seed, runs used, diverged
    runs). A filter with no usable run has no curve column and empty
    summary cells.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = art.summary()

    _write_curve_csv(out / "emse.csv", ["n", *art.emse],
                     [to_db(curve) for curve in art.emse.values()])
    _write_curve_csv(out / "model_size.csv", ["n", *art.model_size],
                     list(art.model_size.values()))

    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filter", *SUMMARY_VALUES, "runs_used", "runs_diverged"])
        for lab, row in summary.items():
            cells = [f"{row[key]:.12g}" if key in row else "" for key in SUMMARY_VALUES]
            writer.writerow([lab, *cells, row["runs_used"], len(art.diverged[lab])])

    with (out / "omega_snapshots.csv").open("w", newline="") as fh:
        dim = max((s["initial"].shape[1] for s in art.snapshots.values()), default=0)
        csv.writer(fh).writerow(["filter", "stage", "feature"] + [f"coord{i}" for i in range(dim)])
        for lab, snaps in art.snapshots.items():
            for stage in SNAPSHOT_STAGES:
                if (freqs := snaps.get(stage)) is not None:
                    # as a curve's rows: the label cells quoted once by csv.writer,
                    # less its \r\n and with % escaped, then one %-format per feature
                    cells = io.StringIO()
                    csv.writer(cells).writerow([lab, stage])
                    row = (cells.getvalue()[:-2].replace("%", "%%") + ",%d"
                           + ",%.12g" * freqs.shape[1] + "\r\n")
                    fh.writelines(row % (m, *values) for m, values in enumerate(freqs.tolist()))

    manifest = {
        "config": config_to_dict(art.config),
        "seed": art.config.seed,
        "files": ["emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv"],
        "runs_used": {lab: row["runs_used"] for lab, row in summary.items()},
        "diverged_runs": art.diverged,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
