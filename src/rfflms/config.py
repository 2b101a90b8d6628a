"""Benchmark experiment configuration.

An experiment is fully declarative: a plant, a list of filters with their
step sizes and feature/kernel settings, a horizon, a Monte Carlo run
count, one root seed, and a steady-state window. Configs come from the
built-in presets or from a JSON file validated against this schema:
unknown keys, mistyped or non-finite values, nonzero parameters that a
filter's kind does not read, and RFF step sizes and bandwidths outside
the float32 bounds of ``rfflms.filters`` are rejected, and errors name
the field.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .filters import check_rate, check_rff_bandwidth, check_rff_rate
from .kernels import check_bandwidth, check_threshold


class ConfigError(ValueError):
    pass


# The parameters each filter kind reads. A parameter its kind does not read
# must stay 0: an "rff" spec with a nonzero lr_freqs would otherwise run as
# an adaptive filter.
FILTER_FIELDS = {
    "adaptive-rff": ("lr_weights", "lr_freqs", "lr_phases", "n_features", "bandwidth"),
    "rff": ("lr_weights", "n_features", "bandwidth"),
    "coherence-klms": ("lr_weights", "bandwidth", "coherence_threshold"),
}
FILTER_KINDS = tuple(FILTER_FIELDS)

# The parameters each plant kind reads. A parameter its kind does not read
# must keep its default (rho 0.5, change_step 5000): a nonstationary plant
# with rho set would otherwise validate and silently ignore it.
PLANT_FIELDS = {
    "stationary": ("snr_db", "rho"),
    "nonstationary": ("snr_db", "change_step"),
}
PLANT_KINDS = tuple(PLANT_FIELDS)


# annotation -> accepted Python types; bool is never accepted
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


def _check_types(obj, prefix: str, infinite_ok: tuple[str, ...] = ()) -> None:
    """Check each field's type against its annotation before any range check.

    A ``float`` field must also be finite, or +inf if its name is in
    ``infinite_ok``.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type not in _FIELD_TYPES:
            continue
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ConfigError(f"{prefix}{f.name} must be of type {f.type}, got {value!r}")
        if f.type == "float" and not (
                math.isfinite(value) or (f.name in infinite_ok and value == math.inf)):
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value!r}")


def _check_unread(obj, prefix: str, reads: tuple[str, ...]) -> None:
    """A numeric field that ``obj.kind`` does not read must keep its default."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", "float") and f.name not in reads and value != f.default:
            raise ConfigError(f"{prefix}{f.name} is not read by kind {obj.kind!r} and must "
                              f"be {f.default!r} or absent, got {value!r}")


@dataclass(frozen=True)
class FilterSpec:
    """One filter entry: its kind plus the parameters that kind reads.

    ``FILTER_FIELDS`` lists, per kind, the parameters it reads; the others
    must be left at 0.
    """

    kind: str
    label: str = ""
    lr_weights: float = 0.0
    lr_freqs: float = 0.0
    lr_phases: float = 0.0
    n_features: int = 0
    bandwidth: float = 0.0
    coherence_threshold: float = 0.0

    def validate(self) -> None:
        if self.kind not in FILTER_KINDS:
            raise ConfigError(f"filter.kind must be one of {FILTER_KINDS}, got {self.kind!r}")
        _check_types(self, "filter.")
        reads = FILTER_FIELDS[self.kind]
        _check_unread(self, "filter.", reads)
        try:
            if self.kind == "coherence-klms":
                check_rate("lr_weights", self.lr_weights)
                check_bandwidth(self.bandwidth)
                check_threshold(self.coherence_threshold)
            else:
                # the RFF kinds compute in float32 (see rfflms.filters), so
                # their step sizes and bandwidth have float32 bounds
                for name in ("lr_weights", "lr_freqs", "lr_phases"):
                    check_rff_rate(name, getattr(self, name))
                check_rff_bandwidth(self.bandwidth)
        except ValueError as exc:
            raise ConfigError(f"filter.{exc}") from None
        if "n_features" in reads and self.n_features < 1:
            raise ConfigError(f"filter.n_features must be >= 1, got {self.n_features}")
        if self.column == "n":  # the step column of emse.csv and model_size.csv
            raise ConfigError("filter.label must not be 'n', the curve CSVs' step column")

    @property
    def column(self) -> str:
        return self.label or self.kind


@dataclass(frozen=True)
class PlantConfig:
    """Plant selector plus its parameters.

    kind "stationary": rho (AR(1) input correlation), snr_db
    kind "nonstationary": change_step, snr_db

    ``PLANT_FIELDS`` lists, per kind, the parameters it reads; the others
    must keep their defaults.
    """

    kind: str
    snr_db: float
    rho: float = 0.5
    change_step: int = 5000

    def validate(self, horizon: int) -> None:
        if self.kind not in PLANT_KINDS:
            raise ConfigError(f"plant.kind must be one of {PLANT_KINDS}, got {self.kind!r}")
        _check_types(self, "plant.", infinite_ok=("snr_db",))
        _check_unread(self, "plant.", PLANT_FIELDS[self.kind])
        try:  # the noise variance factor of systems.calibrate_noise
            10.0 ** (-self.snr_db / 10.0)
        except OverflowError:
            raise ConfigError(
                f"plant.snr_db must be large enough that 10**(-snr_db/10) fits in a "
                f"float, got {self.snr_db}"
            ) from None
        if self.kind == "stationary" and not abs(self.rho) < 1:
            raise ConfigError(f"plant.rho must satisfy |rho| < 1, got {self.rho}")
        if self.kind == "nonstationary" and not 0 < self.change_step < horizon:
            raise ConfigError(
                f"plant.change_step must lie in (0, horizon), got {self.change_step}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.

    ``seed`` is the root seed, in ``[0, 2**64)``; every stream and bank
    seed derives from it (see ``rfflms.seeding``).

    ``max_divergence_fraction`` bounds the share of bad runs: the
    divergence policy in ``rfflms.runner`` says which runs are bad and
    what becomes of them.
    """

    name: str
    plant: PlantConfig
    filters: tuple[FilterSpec, ...]
    horizon: int
    runs: int
    seed: int
    steady_window: int
    max_divergence_fraction: float = 0.01  # share of runs in which any filter diverged
    out_dir: str | None = None

    def validate(self) -> None:
        _check_types(self, "")
        # export writes to results/<name> unless out_dir is set; both path
        # separators are refused, so a config validates on every platform
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ConfigError(f"name must be one plain directory name, got {self.name!r}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not 1 <= self.steady_window <= self.horizon:
            raise ConfigError(
                f"steady_window must lie in [1, horizon], got {self.steady_window}"
            )
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 0.0 <= self.max_divergence_fraction <= 1.0:
            raise ConfigError("max_divergence_fraction must lie in [0, 1]")
        if len(self.filters) == 0:
            raise ConfigError("filters must be a nonempty list")
        labels = [f.column for f in self.filters]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"filter labels must be unique, got {labels}")
        self.plant.validate(self.horizon)
        for f in self.filters:
            f.validate()


def _build(datacls, payload: dict, where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be an object")
    fields = {f.name for f in dataclasses.fields(datacls)}
    unknown = set(payload) - fields
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    try:
        return datacls(**payload)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError("top-level config must be an object")
    payload = dict(payload)
    for key in ("plant", "filters", "horizon", "runs", "seed", "steady_window"):
        if key not in payload:
            raise ConfigError(f"missing required key {key!r}")
    plant = _build(PlantConfig, payload.pop("plant"), "plant")
    raw_filters = payload.pop("filters")
    if not isinstance(raw_filters, list):
        raise ConfigError("filters must be a list")
    filters = tuple(
        _build(FilterSpec, f, f"filters[{i}]") for i, f in enumerate(raw_filters)
    )
    payload.setdefault("name", "custom")
    cfg = _build(ExperimentConfig, {**payload, "plant": plant, "filters": filters}, "config")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON form of ``cfg``, which ``config_from_dict`` reads back."""
    payload = dataclasses.asdict(cfg)
    payload["filters"] = list(payload["filters"])
    return payload


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_dict(payload)


# the built-in experiments, frozen values that preset() returns as they are
PRESETS = {
    # horizon is not pinned by the scenario; 2e4 leaves the 5e3 steady
    # window well past convergence for all three filters
    "stationary-paper": ExperimentConfig(
        name="stationary-paper",
        plant=PlantConfig(kind="stationary", snr_db=15.0, rho=0.5),
        filters=(
            FilterSpec(kind="coherence-klms", lr_weights=0.2,
                       bandwidth=0.95, coherence_threshold=0.7),
            FilterSpec(kind="rff", lr_weights=0.01,
                       n_features=48, bandwidth=0.95),
            FilterSpec(kind="adaptive-rff", lr_weights=0.005,
                       lr_freqs=1.0, lr_phases=1.0,
                       n_features=48, bandwidth=0.95),
        ),
        horizon=20000,
        runs=200,
        seed=12345,
        steady_window=5000,
    ),
    "nonstationary-paper": ExperimentConfig(
        name="nonstationary-paper",
        plant=PlantConfig(kind="nonstationary", snr_db=25.0, change_step=5000),
        filters=(
            FilterSpec(kind="coherence-klms", lr_weights=0.05,
                       bandwidth=0.3661, coherence_threshold=0.9),
            FilterSpec(kind="rff", lr_weights=0.005,
                       n_features=96, bandwidth=0.3661),
            FilterSpec(kind="adaptive-rff", lr_weights=0.005,
                       lr_freqs=0.05, lr_phases=0.05,
                       n_features=96, bandwidth=0.3661),
        ),
        horizon=10000,
        runs=200,
        seed=12345,
        steady_window=5000,
    ),
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def list_presets() -> list[str]:
    return sorted(PRESETS)
