"""rfflms benchmark: time to artifacts, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
The workloads are defined in ``workloads.json`` beside this file, with
their generator inputs, filter-step counts and the map from each layer's
metrics to the end-to-end metrics they should move. The seed becomes the
experiment's root seed, so the same seed gives the same inputs.

Each repetition is a fresh interpreter (``rep.py``) that imports rfflms,
builds the config, runs the workload through the public API and checks the
artifacts it wrote. Repetitions run back to back until ``--seconds`` have
passed (at least one), always into the same directory, so their artifact
sha256s must agree. Timings are medians over repetitions.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced serial repetitions and prints the per-layer metrics
(medians over traced repetitions) plus the tracing overhead. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it repeat the metrics for a reader.

BLAS and OpenMP are pinned to one thread, so the sweep's two pool workers
use no more than two cores. Everything is written under ``.perfbench_out/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import KINDS, import_seconds

HERE = Path(__file__).resolve().parent
REP_TIMEOUT_S = 120  # a run then ends within --seconds + 120 s


def load_benchmark() -> tuple[dict, dict]:
    """(BENCHMARK.json, workloads.json), both read from beside this package."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    return bench, workloads


def rep_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_rep(root: Path, wl: dict, seed: int, out_rel: Path, config_rel: Path | None,
            trace: bool) -> dict:
    """One repetition in a fresh interpreter, in its own process group so that
    a hung pool is ended with it. Returns rep.py's JSON, or an ``error``."""
    out = root / out_rel
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "rep.py"), "--workload-json", json.dumps(wl), "--seed", str(seed),
            "--out", str(out_rel), "--src", str(root / "src")]
    if config_rel is not None:
        cmd += ["--config", str(config_rel)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=root, env=rep_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition timed out after {REP_TIMEOUT_S} s"}
    finally:
        try:  # pool workers left behind by a failed repetition
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"rep.py exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["stderr"] = stderr
    return result


def measure(root: Path, name: str, wl: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for ``seconds``; return the contract's result object."""
    work = Path(".perfbench_out") / name
    (root / work).mkdir(parents=True, exist_ok=True)
    config_rel = None
    if "config" in wl:  # the generated config the sweep's CLI call reads
        config_rel = work / "config.json"
        (root / config_rel).write_text(json.dumps({**wl["config"], "seed": seed}, indent=2))
    out_rel = work / "artifacts"

    reps, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if trace:
            # pool children are not traced, so traced repetitions run serially,
            # and so do the untraced ones they are compared with
            serial = {**wl, "workers": 1}
            reps.append(run_rep(root, serial, seed, out_rel, config_rel, False))
            traced.append(run_rep(root, serial, seed, out_rel, config_rel, True))
        else:
            reps.append(run_rep(root, wl, seed, out_rel, config_rel, False))
        if time.perf_counter() >= deadline:
            break
    return summarize(wl, reps, traced)


def operations(wl: dict) -> int:
    """Operations of one repetition: experiments x runs x filters."""
    runs = wl["runs"] if "preset" in wl else wl["config"]["runs"]
    return wl.get("experiments", 1) * runs * len(wl["filters"])


def summarize(wl: dict, reps: list[dict], traced: list[dict]) -> dict:
    """The contract's result object. A repetition that crashed, or whose
    artifacts differ from the first repetition's, counts all of its
    operations as failed; one whose artifacts failed the check has already
    counted them so in rep.py."""
    every = reps + traced
    errors = [r["error"] for r in every if r.get("error")]
    attempted = sum(r.get("attempted", operations(wl)) for r in every)
    failed = sum(r.get("failed", operations(wl)) for r in every)
    written = [r for r in every if "digests" in r]
    differing = [r for r in written[1:] if r["digests"] != written[0]["digests"]]
    if differing:
        errors.append(f"artifact sha256s of {len(differing)} of {len(written)} repetitions "
                      "differ from the first one's, for one seed")
        failed += sum(r["attempted"] - r["failed"] for r in differing)
    finished = [r for r in reps if "wall_s" in r]
    if traced:
        metrics = per_layer(finished, [r for r in traced if "layers" in r])
    else:
        metrics = end_to_end(finished, attempted, failed)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics, "errors": errors}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    m = {
        "wall_s": (_median([r["wall_s"] for r in reps]), "s"),
        "steps_per_s": (_median([r["filter_steps"] / r["wall_s"] for r in reps]), "steps/s"),
        "setup_s": (_median([r["setup_s"] for r in reps]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in reps]), "MiB"),
    }
    for kind in KINDS:
        values = [-r["ss_db"][kind] for r in reps if kind in r["ss_db"]]
        m[f"ss_att_db.{kind}"] = (_median(values), "dB")
    m["ok_frac"] = (1.0 - failed / attempted, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    bench, _ = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    samples: dict[str, list[float]] = {}
    for r in traced:
        for key, value in {**r["layers"], **import_seconds(r["stderr"])}.items():
            samples.setdefault(key, []).append(value)
    values = {k: _median(v) for k, v in samples.items()}
    values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                  - _median([r["wall_s"] for r in untraced]))
    # with no traced repetition finished the result is already marked incorrect
    return {name: {"value": values[name] if traced else 0.0, "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rfflms" / "__init__.py").is_file():
        print(f"error: {root} holds no src/rfflms to benchmark", file=sys.stderr)
        return 2
    _, workloads = load_benchmark()
    if args.workload not in workloads["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads["workloads"][args.workload]
    # the config schema needs a non-negative root seed
    result = measure(root, args.workload, wl, args.seed % 2**32, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{args.workload:<14} {key:<36} {metric['value']:>14.6g} {metric['unit']}")
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
