"""Call tracing from outside the program, for the benchmark's per-layer metrics.

The tracer replaces public functions at the names where their callers look
them up, so the program itself is unchanged. Two kinds of wrapper exist:

* span wrappers, for calls made once per run or per experiment: each call
  appends one span ``[name, start, end, parent]``;
* per-step wrappers, for calls made once per filter step: each call adds
  its count and duration to an accumulator keyed by the enclosing span and
  by the per-step call it is nested in, so memory stays bounded however
  long the run.

Nothing is written while the program runs; ``layer_metrics`` turns the
records into numbers once the repetition is over.
"""

from __future__ import annotations

import weakref
from time import perf_counter

ROOT = -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.calls: dict[tuple, list] = {}   # (parent, outer, name) -> [count, total, hits]
        self._stack: list[int] = []
        self._outer: str | None = None

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else ROOT])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapped

    def per_step(self, name, fn):
        """Accumulate calls of ``fn``; ``name`` is a string or a function of
        the call's first argument (used to tell filter kinds apart)."""
        calls, stack = self.calls, self._stack
        name_of = name if callable(name) else (lambda _obj: name)

        def wrapped(*args, **kwargs):
            label = name_of(args[0] if args else None)
            outer = self._outer
            self._outer = label
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self._outer = outer
                key = (stack[-1] if stack else ROOT, outer, label)
                acc = calls.get(key)
                if acc is None:
                    acc = calls[key] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += dt
            if result is True:
                acc[2] += 1
            return result

        return wrapped

    # ---- read-out -------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, int]:
        """Summed (count, seconds, true results) of a per-step call name."""
        count = total = hits = 0
        for (_parent, _outer, label), (c, t, h) in self.calls.items():
            if label == name:
                count, total, hits = count + c, total + t, hits + h
        return count, total, hits

    def nested_seconds(self, outer: str) -> float:
        """Seconds spent in per-step calls made from inside ``outer`` calls."""
        return sum(t for (_p, out, _n), (_c, t, _h) in self.calls.items() if out == outer)

    def span_seconds(self, name: str) -> tuple[int, float]:
        durations = [end - start for n, start, end, _p in self.spans if n == name]
        return len(durations), sum(durations)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus its child spans and the per-step calls
        made directly under it (not the ones nested in another per-step call)."""
        own = [end - start for _n, start, end, _p in self.spans]
        for _n, start, end, parent in self.spans:
            if parent != ROOT:
                own[parent] -= end - start
        for (parent, outer, _n), (_c, t, _h) in self.calls.items():
            if parent != ROOT and outer is None:
                own[parent] -= t
        return own


def flops_per_step(kind: str, n_features: int, input_dim: int) -> int:
    """Computed arithmetic of one RFF-family step (transcendentals count as one).

    rff: angles 2DL, cosine map 2D, prediction 2D, weight update 2D.
    adaptive-rff adds the feature gradient 3D, frequency update 2DL + D and
    phase update 2D.
    """
    d, dim = n_features, input_dim
    base = 2 * d * dim + 6 * d
    return base if kind == "rff" else base + 2 * d * dim + 6 * d


KINDS = ("rff", "adaptive-rff", "coherence-klms")
RFF_KINDS = ("rff", "adaptive-rff")
RFFLMS_MODULES = ("config", "seeding", "systems", "features", "kernels", "filters",
                  "metrics", "runner", "cli")


def install(tracer: Tracer, rfflms, patch=setattr) -> dict:
    """Wrap the traced names of an imported ``rfflms``.

    Returns, per RFF-family kind, [filters built, summed flops per step of
    those filters], which ``layer_metrics`` needs. ``patch`` is ``setattr``
    or a test's monkeypatch.
    """
    import rfflms.cli as cli
    import rfflms.filters as filters
    import rfflms.runner as runner

    # filters are attributed to the kind their spec names, whatever class
    # implements that kind
    kinds = weakref.WeakKeyDictionary()
    flops = {k: [0, 0] for k in RFF_KINDS}
    patched_classes = set()

    def step_name(filt):
        return f"filters.{kinds.get(filt, type(filt).__name__)}.step"

    def build_filter(spec, input_dim, bank_seed):
        filt = orig_build(spec, input_dim, bank_seed)
        kinds[filt] = spec.kind
        if spec.kind in RFF_KINDS:
            flops[spec.kind][0] += 1
            flops[spec.kind][1] += flops_per_step(spec.kind, spec.n_features, input_dim)
        # wrap ``step`` once, on the class that defines it
        owner = next(c for c in type(filt).__mro__ if "step" in vars(c))
        if owner not in patched_classes:
            patched_classes.add(owner)
            patch(owner, "step", tracer.per_step(step_name, vars(owner)["step"]))
        return filt

    orig_build = runner.build_filter
    patch(runner, "build_filter", build_filter)

    for mod in (rfflms, cli):  # the benchmark calls the first, a sweep the second
        patch(mod, "run_experiment",
              tracer.span("runner.run_experiment", mod.run_experiment))
        patch(mod, "export_artifacts",
              tracer.span("runner.export_artifacts", mod.export_artifacts))
    patch(cli, "main", tracer.span("cli.main", cli.main))
    for name in ("gen_stationary_stream", "gen_nonstationary_stream"):
        patch(runner, name, tracer.span("systems.stream", getattr(runner, name)))
    patch(runner, "sample_feature_bank",
          tracer.span("features.sample_bank", runner.sample_feature_bank))
    patch(runner, "steady_state_emse",
          tracer.span("metrics.steady_state", runner.steady_state_emse))
    patch(runner, "to_db", tracer.span("metrics.to_db", runner.to_db))
    patch(rfflms.ExperimentConfig, "validate",
          tracer.span("config.validate", rfflms.ExperimentConfig.validate))
    patch(filters, "phase_angles",
          tracer.per_step("features.phase_angles", filters.phase_angles))
    patch(filters, "coherence_admit",
          tracer.per_step("kernels.coherence_admit", filters.coherence_admit))
    patch(filters, "kernelized_input",
          tracer.per_step("kernels.kernelized_input", filters.kernelized_input))
    return flops


def _us_per_call(count: int, seconds: float) -> float:
    return seconds / count * 1e6 if count else 0.0


def layer_metrics(tracer: Tracer, flops: dict, artifacts: dict) -> dict[str, float]:
    """Per-layer numbers of one traced repetition.

    ``artifacts`` carries what the benchmark read back from the written
    files: ``diverged`` per kind, ``dict_size`` (mean final coherence
    dictionary size) and ``export_bytes``.
    """
    m: dict[str, float] = {}
    own = tracer.self_seconds()
    step_count = step_seconds = 0
    for kind in KINDS:
        name = f"filters.{kind}.step"
        count, seconds, _ = tracer.totals(name)
        inner = tracer.nested_seconds(name)
        step_count += count
        step_seconds += seconds
        m[f"filters.{kind}.us_per_step"] = _us_per_call(count, seconds)
        m[f"filters.{kind}.self_us_per_step"] = _us_per_call(count, seconds - inner)
        m[f"filters.{kind}.steps"] = count
        m[f"filters.{kind}.diverged"] = artifacts["diverged"].get(kind, 0)
        if kind in RFF_KINDS:
            n_built, summed = flops[kind]
            # every built filter runs the same horizon, so the mean per-step
            # flop count over built filters weights each step equally
            m[f"filters.{kind}.mflops"] = (
                summed / n_built * count / seconds / 1e6 if n_built and seconds else 0.0
            )

    experiment_self = sum(own[i] for i, s in enumerate(tracer.spans)
                          if s[0] == "runner.run_experiment")
    m["runner.self_us_per_step"] = _us_per_call(step_count, experiment_self)
    m["runner.experiment_s"] = tracer.span_seconds("runner.run_experiment")[1]
    m["runner.export_s"] = tracer.span_seconds("runner.export_artifacts")[1]
    m["runner.export_bytes"] = artifacts["export_bytes"]

    cli_spans = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.main"]
    m["cli.self_s"] = sum(own[i] for i in cli_spans)
    m["cli.experiments"] = sum(1 for s in tracer.spans
                               if s[0] == "runner.run_experiment" and s[3] in cli_spans)

    offers, admit_s, admitted = tracer.totals("kernels.coherence_admit")
    kcount, kseconds, _ = tracer.totals("kernels.kernelized_input")
    m["kernels.admit_us"] = _us_per_call(offers, admit_s)
    m["kernels.kernelize_us"] = _us_per_call(kcount, kseconds)
    m["kernels.dict_size"] = artifacts["dict_size"]
    m["kernels.admit_ratio"] = admitted / offers if offers else 0.0

    acount, aseconds, _ = tracer.totals("features.phase_angles")
    m["features.angles_us"] = _us_per_call(acount, aseconds)
    m["features.banks"], m["features.bank_s"] = tracer.span_seconds("features.sample_bank")
    m["systems.streams"], m["systems.stream_s"] = tracer.span_seconds("systems.stream")
    m["metrics.s"] = (tracer.span_seconds("metrics.steady_state")[1]
                      + tracer.span_seconds("metrics.to_db")[1])
    m["config.validate_s"] = tracer.span_seconds("config.validate")[1]
    return m


def import_seconds(importtime_log: str) -> dict[str, float]:
    """Cumulative import seconds of the package and each of its modules,
    parsed from the stderr of ``python -X importtime``."""
    found = {}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        try:
            cumulative_us = int(parts[1])
        except ValueError:  # the column header line
            continue
        found[module] = cumulative_us / 1e6
    out = {"rfflms.import_s": found.get("rfflms", 0.0)}
    for mod in RFFLMS_MODULES:
        out[f"{mod}.import_s"] = found.get(f"rfflms.{mod}", 0.0)
    return out
