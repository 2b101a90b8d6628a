"""Benchmark command line.

    rfflms run <preset> [--runs N] [--seed S] [--out DIR] [--workers K]
    rfflms run --config PATH [...]
    rfflms run <preset> --sweep bandwidth=0.3:2.0:0.1 [...]
    rfflms list-presets
    rfflms validate --config PATH
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .config import (
    FILTER_FIELDS,
    ConfigError,
    ExperimentConfig,
    list_presets,
    load_config,
    preset,
)
from .runner import ExperimentError, export_artifacts, run_experiment

SWEEPABLE = tuple(sorted({name for fields in FILTER_FIELDS.values() for name in fields}))


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    try:
        name, grid = text.split("=", 1)
        start, stop, step = (float(v) for v in grid.split(":"))
    except ValueError:
        raise ConfigError(
            f"--sweep expects NAME=START:STOP:STEP, got {text!r}"
        ) from None
    if name not in SWEEPABLE:
        raise ConfigError(f"--sweep field must be one of {SWEEPABLE}, got {name!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"--sweep needs finite bounds and step, got {text!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"--sweep needs step > 0 and stop >= start, got {text!r}")
    values, v, k = [], start, 0
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        k += 1
        v = start + k * step
    return name, values


def _override_filters(cfg: ExperimentConfig, name: str, value: float) -> ExperimentConfig:
    """Set one field on every filter whose kind reads it (see ``FILTER_FIELDS``)."""
    if not any(name in FILTER_FIELDS[f.kind] for f in cfg.filters):
        raise ConfigError(f"--sweep field {name!r} is read by none of the configured filters")
    if name == "n_features":
        if value != int(value):
            raise ConfigError(f"--sweep n_features takes integer values, got {value:g}")
        value = int(value)
    return dataclasses.replace(cfg, filters=tuple(
        dataclasses.replace(f, **{name: value}) if name in FILTER_FIELDS[f.kind] else f
        for f in cfg.filters
    ))


def _resolve_config(args) -> ExperimentConfig:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("give exactly one of a preset name or --config PATH")
    cfg = load_config(args.config) if args.config else preset(args.preset)
    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _summary_lines(art) -> list[str]:
    lines = [f"{'filter':<18} {'steady EMSE (dB)':>18} {'final model size':>18}"]
    for f in art.config.filters:
        lab = f.column
        if lab not in art.steady_state_db:  # no usable run
            lines.append(f"{lab:<18} {'diverged':>18} {'-':>18}")
            continue
        lines.append(
            f"{lab:<18} {art.steady_state_db[lab]:>18.3f} "
            f"{art.final_model_size[lab]:>18.1f}"
        )
    return lines


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else Path("results") / cfg.name
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        # check the whole grid before the first run
        grid = [_override_filters(cfg, name, value) for value in values]
        for cfg_v in grid:
            cfg_v.validate()
        for value, cfg_v in zip(values, grid):
            art = run_experiment(cfg_v, workers=args.workers)
            sub = out_dir / f"sweep_{name}={value:g}"
            export_artifacts(art, sub)
            print(f"[{cfg.name}] {name}={value:g} -> {sub}")
            for line in _summary_lines(art):
                print("  " + line)
        return 0
    art = run_experiment(cfg, workers=args.workers)
    export_artifacts(art, out_dir)
    print(f"[{cfg.name}] runs={cfg.runs} horizon={cfg.horizon} seed={cfg.seed} -> {out_dir}")
    for line in _summary_lines(art):
        print("  " + line)
    return 0


def _cmd_list_presets(_args) -> int:
    for name in list_presets():
        print(name)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: OK ({cfg.name}: {len(cfg.filters)} filters, "
          f"runs={cfg.runs}, horizon={cfg.horizon})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfflms",
        description="Seeded Monte Carlo benchmarks for streaming kernel LMS filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and export CSV artifacts")
    run_p.add_argument("preset", nargs="?", help="built-in preset name")
    run_p.add_argument("--config", type=Path, help="JSON experiment config")
    run_p.add_argument("--runs", type=int, help="override Monte Carlo run count")
    run_p.add_argument("--seed", type=int, help="override the root seed")
    run_p.add_argument("--out", type=Path, help="output directory")
    run_p.add_argument("--workers", type=int, default=1, help="parallel run workers")
    run_p.add_argument("--sweep", help="grid over one filter field, NAME=START:STOP:STEP")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-presets", help="print the built-in preset names")
    list_p.set_defaults(func=_cmd_list_presets)

    val_p = sub.add_parser("validate", help="check a config file against the schema")
    val_p.add_argument("--config", type=Path, required=True)
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
