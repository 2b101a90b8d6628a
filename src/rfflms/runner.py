"""Monte Carlo benchmark driver.

Each run derives its own stream and feature-bank seeds from the root seed
and the run index, so results are reproducible bit-for-bit regardless of
how the runs are split into batches or how many workers execute them.
When both RFF-family filters appear in one config with the same bank
settings they start from identical banks, giving a paired comparison.

One call of ``run_experiments`` runs one experiment per config. Its
worker count is capped at the total run count and the CPU count. Each
config's runs are split evenly into contiguous batches of at most
``MAX_BATCH_RUNS`` runs: with ``share = ceil(workers / configs)``, the
batch count is the smallest multiple of ``share`` that allows this,
capped at the config's run count. A single experiment thus gets a
multiple of the worker count, and a sweep of small experiments one batch
each. With one worker the batches run one after the other in this
process. Otherwise ``pool.map`` submits every batch of the call at once to
one pool of that many processes, which lives for the whole call, and the
results are still reduced in task order: a finished batch waits in this
process until its turn. A call that fails or is closed early cancels
every batch that no worker has taken yet. Besides the batches they run,
the workers hold up to ``workers + 1`` taken ones in the pool's queue,
and these still finish: up to ``2 * workers + 1`` batches past those
already done. With 2 workers, a call of 9 batches whose first one fails
runs 5 or 6 of them. Within a batch each filter is built once for all
of its runs and consumes their stacked streams, (R, T, L) inputs and
(R, T) targets, in one ``run`` call (see ``rfflms.filters``): time is the
only sequential axis. The batch that holds run 0 of a nonstationary
experiment splits an RFF-family filter's call at the change step to
record run 0's frequency bank there. The EMSE curves are then computed at
once from the clean targets and the returned predictions.

Divergence policy. A filter's run is usable iff its EMSE curve is finite
at every step and its mean EMSE over the steady window is at most the
run's mean clean power there, the EMSE of predicting 0. This covers a run
that the filter flags as diverged (see the divergence paragraph of
``rfflms.filters``), a run whose prediction stays finite while its
squared error overflows, and a finite run that does worse than
predicting 0. Run 0's ``change`` and ``final`` bank snapshots are taken
only of a finite bank. An unusable run of a filter is listed in
``RunArtifacts.diverged`` and left out of that filter's mean curves,
while the other filters' curves of the same run, and the other runs of
the batch, still count. The experiment raises ``ExperimentError`` in
exactly two cases:

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
import json
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, FilterSpec, config_to_dict
from .features import sample_feature_bank
from .filters import AdaptiveRffLms, CoherenceKlms
from .metrics import steady_state_emse, to_db
from .seeding import derive_seed
from .systems import SampleStream, gen_nonstationary_stream, gen_stationary_stream

SNAPSHOT_STAGES = ("initial", "change", "final")
# the summary values of a filter with a usable run, as summary.csv names them
SUMMARY_VALUES = ("steady_state_emse", "steady_state_emse_db", "final_model_size")
# runs per batch at most: a batch holds its runs' streams and curves at once
MAX_BATCH_RUNS = 32


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


def make_stream(cfg: ExperimentConfig, stream_seed: int) -> SampleStream:
    gen = gen_stationary_stream if cfg.plant.kind == "stationary" else gen_nonstationary_stream
    return gen(cfg.plant, cfg.horizon, stream_seed)


def build_filter(spec: FilterSpec, input_dim: int, bank_seeds):
    """Instantiate one filter over a batch of runs, one per bank seed;
    RFF-family banks come from the seeds, so matching specs share identical
    initial banks within a run."""
    if spec.kind == "coherence-klms":
        return CoherenceKlms(spec.bandwidth, spec.coherence_threshold,
                             spec.lr_weights, input_dim, n_runs=len(bank_seeds))
    # an rff spec has zero feature step sizes (FilterSpec.validate), which
    # freezes the banks
    banks = [sample_feature_bank(spec.bandwidth, spec.n_features, input_dim, seed)
             for seed in bank_seeds]
    return AdaptiveRffLms(banks, spec.lr_weights, spec.lr_freqs, spec.lr_phases)


def _run_batch(cfg: ExperimentConfig, runs: range):
    """Monte Carlo runs ``runs``: every configured filter over each run's
    fresh stream, all runs of the batch in one ``run`` call per filter.

    Yields, filter by filter: its label, its (R, T) EMSE and model-size
    curves, the (R,) mask of its usable runs (see the divergence policy in
    the module docstring) and run 0's bank snapshots (None unless the
    batch holds run 0 and the filter has a bank).
    """
    streams = [make_stream(cfg, derive_seed(cfg.seed, r, "stream")) for r in runs]
    # (R, T, ...) views of time-major arrays, which run() steps through
    # without copying
    inputs = np.stack([s.inputs for s in streams], axis=1).transpose(1, 0, 2)
    targets = np.stack([s.targets for s in streams], axis=1).T
    clean = np.stack([s.clean for s in streams], axis=1).T
    del streams
    # the steady-window EMSE of predicting 0, which a usable run must not exceed
    clean_power = (clean[:, -cfg.steady_window:] ** 2).mean(axis=1)
    bank_seeds = [derive_seed(cfg.seed, r, "bank") for r in runs]
    take_snapshots = runs[0] == 0
    change_step = cfg.plant.change_step if cfg.plant.kind == "nonstationary" else None

    for spec in cfg.filters:
        filt = build_filter(spec, inputs.shape[2], bank_seeds)
        snapshots = None
        if take_snapshots and isinstance(filt, AdaptiveRffLms):
            snapshots = {"initial": filt.freqs[0].copy()}
        # the batch of run 0 stops at the regime change to record its bank there
        split = change_step if snapshots is not None else None
        if split is None:
            preds, sizes = filt.run(inputs, targets)
        else:
            preds, sizes = filt.run(inputs[:, :split], targets[:, :split])
            if not filt.diverged_at[0] and np.isfinite(filt.freqs[0]).all():
                snapshots["change"] = filt.freqs[0].copy()
            tail_preds, tail_sizes = filt.run(inputs[:, split:], targets[:, split:])
            preds = np.concatenate([preds, tail_preds], axis=1)
            sizes = np.concatenate([sizes, tail_sizes], axis=1)
        with np.errstate(all="ignore"):  # d * d can overflow for a finite prediction
            emse = clean - preds
            emse *= emse
            steady = emse[:, -cfg.steady_window:].mean(axis=1)
        del preds
        usable = np.isfinite(emse).all(axis=1) & (steady <= clean_power)
        if snapshots is not None and usable[0] and np.isfinite(filt.freqs[0]).all():
            snapshots["final"] = filt.freqs[0].copy()
        yield spec.column, emse, sizes, usable, snapshots


def _batch_results(cfg: ExperimentConfig, runs: range) -> list[tuple]:
    """``_run_batch`` as a list, for a pool worker to return."""
    return list(_run_batch(cfg, runs))


def _plan_batches(runs: list[int], workers: int) -> tuple[int, list[list[range]]]:
    """The pool size and each config's batches for one call over configs of
    ``runs`` runs each, by the rule in the module docstring."""
    # a process per core at most: the bytes do not depend on the count
    workers = min(workers, sum(runs), os.cpu_count() or 1)
    share = -(-workers // max(len(runs), 1))
    plans = []
    for n_runs in runs:
        n_batches = min(share * -(-n_runs // (share * MAX_BATCH_RUNS)), n_runs)
        bounds = [n_runs * b // n_batches for b in range(n_batches + 1)]
        plans.append([range(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    return workers, plans


def _aggregate(cfg: ExperimentConfig, batches: list[range], results) -> RunArtifacts:
    """Reduce one config's batch results, in run-index order, to its
    artifacts; raises ``ExperimentError`` by the divergence policy.
    ``results`` yields a ``_run_batch`` result per batch and may go on past
    the last one: ``zip`` stops at ``batches`` without drawing from it."""
    labels = [f.column for f in cfg.filters]
    emse_sum = {lab: np.zeros(cfg.horizon) for lab in labels}
    size_sum = {lab: np.zeros(cfg.horizon) for lab in labels}
    diverged = {lab: [] for lab in labels}
    snapshots = {}
    for runs, per_filter in zip(batches, results):
        for lab, emse, sizes, usable, snaps in per_filter:
            for i, run_index in enumerate(runs):
                if usable[i]:
                    emse_sum[lab] += emse[i]
                    size_sum[lab] += sizes[i]
                else:
                    diverged[lab].append(run_index)
            if snaps is not None:
                snapshots[lab] = snaps

    bad_runs = sorted({r for runs in diverged.values() for r in runs})
    if len(bad_runs) > cfg.max_divergence_fraction * cfg.runs:
        raise ExperimentError(
            f"{len(bad_runs)} of {cfg.runs} runs diverged "
            f"(allowed fraction {cfg.max_divergence_fraction}): runs {bad_runs[:20]}"
        )
    # runs used, by usable label in config order
    used = {lab: cfg.runs - len(runs) for lab, runs in diverged.items() if len(runs) < cfg.runs}
    if not used:
        raise ExperimentError(f"every run of every filter diverged: {labels}")
    return RunArtifacts(
        config=cfg,
        emse={lab: emse_sum[lab] / n for lab, n in used.items()},
        model_size={lab: size_sum[lab] / n for lab, n in used.items()},
        diverged=diverged,
        snapshots=snapshots,
    )


def run_experiments(cfgs: list[ExperimentConfig], workers: int = 1) -> Iterator[RunArtifacts]:
    """Run every config's Monte Carlo runs; yield each config's artifacts,
    in config order, as soon as its last batch is reduced.

    Every config is validated before the first batch runs. The batches of
    all configs are planned and executed as the module docstring says: with
    ``workers`` > 1 they share one process pool, so later configs run while
    earlier ones are reduced and exported. Aggregation is a sequential
    reduction in run-index order whatever the batching, so the artifacts
    are byte-reproducible under each config's root seed and equal those of
    the config run alone. An ``ExperimentError`` ends the call, after the
    artifacts of the configs before it. The pool then cancels every batch
    that no worker has taken and finishes the taken ones, as it does when
    the caller closes the generator early (see the module docstring).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for cfg in cfgs:
        cfg.validate()
    workers, plans = _plan_batches([cfg.runs for cfg in cfgs], workers)
    tasks = [(cfg, runs) for cfg, batches in zip(cfgs, plans) for runs in batches]
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        if pool is None:
            # batch by batch, and a filter's curves are summed before the next
            # filter runs
            results = (_run_batch(cfg, runs) for cfg, runs in tasks)
        else:
            results = pool.map(_batch_results, *zip(*tasks))
        for cfg, batches in zip(cfgs, plans):
            yield _aggregate(cfg, batches, results)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunArtifacts:
    """Run all Monte Carlo runs of one config and aggregate: ``run_experiments``
    over this config alone, so its batches are a multiple of the (capped)
    worker count."""
    [art] = run_experiments([cfg], workers)
    return art


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_curve_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    # one %-format per row: the cells read as _fmt writes them, with
    # csv.writer's \r\n line ending
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
            cells = [_fmt(row[key]) if key in row else "" for key in SUMMARY_VALUES]
            writer.writerow([lab, *cells, row["runs_used"], len(art.diverged[lab])])

    with (out / "omega_snapshots.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        dim = max((s["initial"].shape[1] for s in art.snapshots.values()), default=0)
        writer.writerow(["filter", "stage", "feature"] + [f"coord{i}" for i in range(dim)])
        for lab, snaps in art.snapshots.items():
            for stage in SNAPSHOT_STAGES:
                freqs = snaps.get(stage)
                if freqs is None:
                    continue
                for m in range(freqs.shape[0]):
                    writer.writerow([lab, stage, m] + [_fmt(v) for v in freqs[m]])

    manifest = {
        "config": config_to_dict(art.config),
        "seed": art.config.seed,
        "files": ["emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv"],
        "runs_used": {lab: row["runs_used"] for lab, row in summary.items()},
        "diverged_runs": art.diverged,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
