"""Monte Carlo benchmark driver.

Each run derives its own stream and feature-bank seeds from the root seed
and the run index, so results are reproducible bit-for-bit regardless of
how many workers execute the runs. When both RFF-family filters appear in
one config with the same bank settings they start from identical banks,
giving a paired comparison.

Each filter consumes its run's stream in one ``run`` call (see
``rfflms.filters``), except that run 0 of a nonstationary experiment
splits an RFF-family filter's call at the change step to record its
frequency bank there. The EMSE curve is then computed over the whole run
at once from the clean targets and the returned predictions.

Divergence policy. A filter diverges in a run when it raises
``DivergenceError`` or its squared error stops being finite; that run's
curve of that filter is listed in ``RunArtifacts.diverged`` and left out
of the filter's aggregates, while the other filters' curves of the same
run still count. The experiment raises ``ExperimentError`` in exactly two
cases:

- more than ``max_divergence_fraction * runs`` runs are bad, where a run
  is bad if any of its filters diverged;
- no filter has a usable run.

A filter that diverged on every run (allowed only when the fraction
permits it) keeps its run indices in ``diverged`` and its initial-bank
snapshot, but has no entry in ``emse``, ``model_size``, ``steady_state``,
``steady_state_db`` or ``final_model_size``. On export it has no column in
the curve CSVs, and its ``summary.csv`` row has empty steady-state and
model-size cells and ``runs_used`` 0.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, FilterSpec, config_to_dict
from .features import RffSpec, sample_feature_bank
from .filters import AdaptiveRffLms, CoherenceKlms, DivergenceError
from .kernels import GaussianKernel
from .metrics import McAggregate, steady_state_emse, to_db
from .seeding import derive_seed
from .systems import (
    Ar1Spec,
    KernelPlantSpec,
    NoiseSpec,
    PiecewisePlantSpec,
    SampleStream,
    gen_nonstationary_stream,
    gen_stationary_stream,
)

SNAPSHOT_STAGES = ("initial", "change", "final")


class ExperimentError(RuntimeError):
    pass


@dataclass
class RunArtifacts:
    """Everything one experiment produces, before any file is written.

    ``diverged`` has every filter label; the aggregate fields have only the
    labels with at least one usable run.
    """

    config: ExperimentConfig
    emse: dict[str, McAggregate]
    model_size: dict[str, np.ndarray]
    steady_state: dict[str, float]
    steady_state_db: dict[str, float]
    final_model_size: dict[str, float]
    snapshots: dict[str, dict[str, np.ndarray]]
    diverged: dict[str, list[int]] = field(default_factory=dict)


def make_stream(cfg: ExperimentConfig, stream_seed: int) -> SampleStream:
    plant = cfg.plant
    if plant.kind == "stationary":
        return gen_stationary_stream(
            KernelPlantSpec(), Ar1Spec(plant.rho), NoiseSpec(plant.snr_db),
            cfg.horizon, stream_seed,
        )
    return gen_nonstationary_stream(
        PiecewisePlantSpec(change_step=plant.change_step, horizon=cfg.horizon),
        NoiseSpec(plant.snr_db), stream_seed,
    )


def build_filter(spec: FilterSpec, input_dim: int, bank_seed: int):
    """Instantiate one filter; RFF-family banks come from ``bank_seed`` so
    matching specs share identical initial banks within a run."""
    if spec.kind == "coherence-klms":
        return CoherenceKlms(GaussianKernel(spec.bandwidth), spec.coherence_threshold,
                             spec.lr_weights, input_dim)
    # an rff spec has zero feature step sizes (FilterSpec.validate), which
    # freezes the bank
    bank = sample_feature_bank(
        RffSpec(spec.bandwidth, spec.n_features, input_dim, bank_seed)
    )
    return AdaptiveRffLms(bank, spec.lr_weights, spec.lr_freqs, spec.lr_phases)


def _run_single(cfg: ExperimentConfig, run_index: int) -> dict:
    """One Monte Carlo run: every configured filter over one fresh stream."""
    stream = make_stream(cfg, derive_seed(cfg.seed, run_index, "stream"))
    bank_seed = derive_seed(cfg.seed, run_index, "bank")
    input_dim = stream.inputs.shape[1]
    take_snapshots = run_index == 0
    change_step = cfg.plant.change_step if cfg.plant.kind == "nonstationary" else None

    out = {}
    for spec in cfg.filters:
        filt = build_filter(spec, input_dim, bank_seed)
        snapshots = None
        if take_snapshots and isinstance(filt, AdaptiveRffLms):
            snapshots = {"initial": filt.bank.freqs.copy()}
        # run 0 stops at the regime change to record the bank there
        split = change_step if snapshots is not None else None
        diverged_step = emse = sizes = None
        try:
            if split is None:
                preds, sizes = filt.run(stream.inputs, stream.targets)
            else:
                preds, sizes = filt.run(stream.inputs[:split], stream.targets[:split])
                snapshots["change"] = filt.bank.freqs.copy()
                tail_preds, tail_sizes = filt.run(stream.inputs[split:],
                                                  stream.targets[split:])
                preds = np.concatenate([preds, tail_preds])
                sizes = np.concatenate([sizes, tail_sizes])
            with np.errstate(all="ignore"):  # d * d can overflow for a finite prediction
                d = stream.clean - preds
                emse = d * d
        except DivergenceError as exc:
            diverged_step = exc.step
        if diverged_step is None and not np.all(np.isfinite(emse)):
            # state still finite but the squared error overflowed: the run
            # is just as unusable, flag it at the first bad step
            diverged_step = int(np.argmin(np.isfinite(emse))) + 1
        if snapshots is not None and diverged_step is None:
            snapshots["final"] = filt.bank.freqs.copy()
        bad = diverged_step is not None
        out[spec.column] = {
            "emse": None if bad else emse,
            "sizes": None if bad else sizes,
            "diverged_step": diverged_step,
            "snapshots": snapshots,
        }
    return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunArtifacts:
    """Run all Monte Carlo runs and aggregate.

    Aggregation is a sequential reduction in run-index order whatever the
    worker count, so the artifacts are byte-reproducible under the root seed.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cfg.validate()
    labels = [f.column for f in cfg.filters]
    emse_sum = {lab: np.zeros(cfg.horizon) for lab in labels}
    size_sum = {lab: np.zeros(cfg.horizon) for lab in labels}
    n_ok = {lab: 0 for lab in labels}
    diverged = {lab: [] for lab in labels}
    snapshots = {}

    worker = partial(_run_single, cfg)
    if workers > 1:
        chunk = max(1, cfg.runs // (workers * 4))
        pool = ProcessPoolExecutor(max_workers=workers)
        results = pool.map(worker, range(cfg.runs), chunksize=chunk)
    else:
        pool = None
        results = map(worker, range(cfg.runs))

    try:
        for run_index, result in enumerate(results):
            for lab in labels:
                r = result[lab]
                if r["diverged_step"] is not None:
                    diverged[lab].append(run_index)
                else:
                    emse_sum[lab] += r["emse"]
                    size_sum[lab] += r["sizes"]
                    n_ok[lab] += 1
                if r["snapshots"] is not None:
                    snapshots[lab] = r["snapshots"]
    finally:
        if pool is not None:
            pool.shutdown()

    bad_runs = sorted({r for runs in diverged.values() for r in runs})
    if len(bad_runs) > cfg.max_divergence_fraction * cfg.runs:
        raise ExperimentError(
            f"{len(bad_runs)} of {cfg.runs} runs diverged "
            f"(allowed fraction {cfg.max_divergence_fraction}): runs {bad_runs[:20]}"
        )
    usable = [lab for lab in labels if n_ok[lab] > 0]
    if not usable:
        raise ExperimentError(f"every run of every filter diverged: {labels}")

    emse = {lab: McAggregate(emse_sum[lab] / n_ok[lab], n_ok[lab]) for lab in usable}
    model_size = {lab: size_sum[lab] / n_ok[lab] for lab in usable}
    steady = {lab: steady_state_emse(emse[lab], cfg.steady_window) for lab in usable}
    return RunArtifacts(
        config=cfg,
        emse=emse,
        model_size=model_size,
        steady_state=steady,
        steady_state_db={lab: to_db(v) for lab, v in steady.items()},
        final_model_size={lab: float(model_size[lab][-1]) for lab in usable},
        snapshots=snapshots,
        diverged=diverged,
    )


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
    (per-filter mean model size), summary.csv (steady state in linear and
    dB, final model size), omega_snapshots.csv (frequency vectors per
    stage), manifest.json (config echo, seed, divergence flags). A filter
    with no usable run has no curve column and empty summary cells.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = [f.column for f in art.config.filters]
    usable = [lab for lab in labels if lab in art.emse]
    runs_used = {lab: art.emse[lab].n_runs if lab in art.emse else 0 for lab in labels}

    _write_curve_csv(out / "emse.csv", ["n"] + usable,
                     [to_db(art.emse[lab].mean) for lab in usable])
    _write_curve_csv(out / "model_size.csv", ["n"] + usable,
                     [art.model_size[lab] for lab in usable])

    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filter", "steady_state_emse", "steady_state_emse_db",
                         "final_model_size", "runs_used", "runs_diverged"])
        for lab in labels:
            if lab in art.emse:
                cells = [_fmt(art.steady_state[lab]), _fmt(art.steady_state_db[lab]),
                         _fmt(art.final_model_size[lab])]
            else:
                cells = ["", "", ""]
            writer.writerow([lab, *cells, runs_used[lab], len(art.diverged[lab])])

    with (out / "omega_snapshots.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        dim = max((s["initial"].shape[1] for s in art.snapshots.values()), default=0)
        writer.writerow(["filter", "stage", "feature"] + [f"coord{i}" for i in range(dim)])
        for lab in labels:
            if lab not in art.snapshots:
                continue
            for stage in SNAPSHOT_STAGES:
                freqs = art.snapshots[lab].get(stage)
                if freqs is None:
                    continue
                for m in range(freqs.shape[0]):
                    writer.writerow([lab, stage, m] + [_fmt(v) for v in freqs[m]])

    manifest = {
        "config": config_to_dict(art.config),
        "seed": art.config.seed,
        "files": ["emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv"],
        "runs_used": runs_used,
        "diverged_runs": {lab: art.diverged[lab] for lab in labels},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
