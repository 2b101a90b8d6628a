"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload-json JSON --seed S --out DIR --src SRC
                             [--config PATH] [--trace]

The repetition times its own set-up (``import rfflms`` and building the
workload's config), runs the workload through the public API, reads the
artifacts back to check them, and prints one JSON object on its last
stdout line. ``run.py`` starts it; it is a separate process so that every
repetition pays the import a user pays and has its own peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ARTIFACTS = ("emse.csv", "model_size.csv", "summary.csv", "omega_snapshots.csv",
             "manifest.json")


class CheckError(ValueError):
    pass


def _finite_rows(path: Path, header: list[str], n_rows: int) -> list[list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != header:
        raise CheckError(f"{path.name}: header {rows[0]} != {header}")
    if len(rows) != n_rows + 1:
        raise CheckError(f"{path.name}: {len(rows) - 1} rows, expected {n_rows}")
    values = [[float(v) for v in row] for row in rows[1:]]
    if not all(math.isfinite(v) for row in values for v in row):
        raise CheckError(f"{path.name}: non-finite value")
    if [int(row[0]) for row in values] != list(range(n_rows)):
        raise CheckError(f"{path.name}: step column is not 0..{n_rows - 1}")
    return values


def check_experiment(exp_dir: Path, kinds: list[str], horizon: int, runs: int,
                     steady_window: int, seed: int) -> dict:
    """Check one experiment's artifacts; return its summary rows by filter.

    Raises CheckError on a missing file, a wrong shape, a non-finite value,
    an unparsable manifest, or a summary that disagrees with the curves.
    """
    for name in ARTIFACTS:
        if not (exp_dir / name).is_file():
            raise CheckError(f"{exp_dir.name}: {name} missing")
    header = ["n"] + kinds
    emse = _finite_rows(exp_dir / "emse.csv", header, horizon)
    _finite_rows(exp_dir / "model_size.csv", header, horizon)
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    if manifest.get("seed") != seed:
        raise CheckError(f"manifest seed {manifest.get('seed')} != {seed}")
    with (exp_dir / "summary.csv").open(newline="") as fh:
        summary = {row["filter"]: row for row in csv.DictReader(fh)}
    if sorted(summary) != sorted(kinds):
        raise CheckError(f"summary.csv filters {sorted(summary)} != {sorted(kinds)}")
    for col, kind in enumerate(kinds, start=1):
        row = summary[kind]
        if int(row["runs_used"]) + int(row["runs_diverged"]) != runs:
            raise CheckError(f"summary.csv {kind}: runs_used + runs_diverged != {runs}")
        ss_db = float(row["steady_state_emse_db"])
        if not math.isfinite(ss_db):
            raise CheckError(f"summary.csv {kind}: non-finite steady state")
        # the summary's steady state is the mean of the linear curve's tail
        tail = [10.0 ** (r[col] / 10.0) for r in emse[horizon - steady_window:]]
        if abs(10.0 * math.log10(sum(tail) / len(tail)) - ss_db) > 1e-6:
            raise CheckError(f"summary.csv {kind}: steady state disagrees with emse.csv")
    return summary


def file_digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def build_config(rfflms, wl: dict, seed: int, config_path: Path):
    """The workload's config, validated, as its first user would build it."""
    if "preset" in wl:
        cfg = dataclasses.replace(rfflms.preset(wl["preset"]), runs=wl["runs"],
                                  horizon=wl["horizon"], steady_window=wl["steady_window"],
                                  seed=seed)
        cfg.validate()
        return cfg
    from rfflms import cli

    cfg = rfflms.load_config(config_path)
    cli.build_parser()
    return cfg


def run_workload(rfflms, wl: dict, cfg, config_path: Path, out: Path, workers: int):
    """Run the workload into ``out``; returns the RunArtifacts of a single
    experiment (None if it raised ExperimentError, or for a sweep)."""
    if "preset" in wl:
        try:
            art = rfflms.run_experiment(cfg, workers=workers)
        except rfflms.ExperimentError:
            return None
        rfflms.export_artifacts(art, out)
        return art
    from rfflms import cli

    argv = ["run", "--config", str(config_path), "--sweep", wl["sweep"],
            "--workers", str(workers), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)  # an ExperimentError ends the sweep early; counted below
    return None


def read_back(wl: dict, cfg, out: Path) -> dict:
    """Check every experiment written and count attempted and failed operations.

    An operation is one (experiment, run, filter). An experiment whose
    artifacts are absent failed on all of its operations; so did every
    experiment of a repetition whose artifacts fail the check.
    """
    kinds = wl["filters"]
    per_experiment = cfg.runs * len(kinds)
    if "preset" in wl:
        exp_dirs = [out]
    else:
        exp_dirs = sorted(p for p in out.iterdir() if p.is_dir()) if out.is_dir() else []
    expected = 1 if "preset" in wl else wl["experiments"]
    attempted = expected * per_experiment
    result = {"attempted": attempted, "failed": 0, "correct": True, "error": None,
              "ss_db": {}, "diverged": {k: 0 for k in kinds}, "dict_size": 0.0}
    summaries = []
    try:
        if len(exp_dirs) > expected:
            raise CheckError(f"{len(exp_dirs)} experiments written, expected {expected}")
        for exp_dir in exp_dirs:
            if (exp_dir / "summary.csv").is_file():
                summaries.append(check_experiment(exp_dir, kinds, cfg.horizon, cfg.runs,
                                                  cfg.steady_window, cfg.seed))
    except (OSError, ValueError, KeyError, IndexError) as exc:  # CheckError is a ValueError
        result.update(failed=attempted, correct=False, error=f"{type(exc).__name__}: {exc}")
        return result
    failed = (expected - len(summaries)) * per_experiment
    for summary in summaries:
        for kind in kinds:
            result["diverged"][kind] += int(summary[kind]["runs_diverged"])
    failed += sum(result["diverged"].values())
    result["failed"] = failed
    for kind in kinds:
        values = [float(s[kind]["steady_state_emse_db"]) for s in summaries]
        if values:
            result["ss_db"][kind] = sum(values) / len(values)
    if "coherence-klms" in kinds and summaries:
        result["dict_size"] = sum(float(s["coherence-klms"]["final_model_size"])
                                  for s in summaries) / len(summaries)
    return result


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--config", type=Path, help="generated config file (sweep)")
    parser.add_argument("--src", type=Path, required=True, help="directory holding rfflms")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    wl = json.loads(args.workload_json)

    start = time.perf_counter()
    import rfflms

    if args.src.resolve() not in Path(rfflms.__file__).resolve().parents:
        print(f"rfflms imported from {rfflms.__file__}, not from {args.src}", file=sys.stderr)
        return 3
    cfg = build_config(rfflms, wl, args.seed, args.config)
    setup_s = time.perf_counter() - start

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        flops = tracing.install(tracer, rfflms)
    start = time.perf_counter()
    art = run_workload(rfflms, wl, cfg, args.config, args.out, wl["workers"])
    wall_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()  # before the check below reads the artifacts back

    result = read_back(wl, cfg, args.out)
    if art is not None and result["correct"]:
        from_art = {k: len(v) for k, v in art.diverged.items()}
        if from_art != result["diverged"]:
            result.update(failed=result["attempted"], correct=False,
                          error=f"diverged runs {from_art} != summary.csv {result['diverged']}")
    result.update(wall_s=wall_s, setup_s=setup_s, peak_rss_mb=rss_mb,
                  filter_steps=result["attempted"] * cfg.horizon,
                  digests=file_digests(args.out))
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer, flops, {
            "diverged": result["diverged"],
            "dict_size": result["dict_size"],
            "export_bytes": sum(p.stat().st_size for p in args.out.rglob("*") if p.is_file()),
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
