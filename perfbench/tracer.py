"""Spans around the calls into each voltrack module, recorded from outside.

The package imports by name (``from .filters import run``), so a public
function is wrapped at every module binding that calls it, not only
where it is defined.  ``ExtendedParams`` and ``GarchParams`` are wrapped
only in ``tuning`` and ``evaluation``: ``cli`` and ``filters`` use them in
``isinstance`` checks.

Spans stay in memory as ``[name, parent, start, end, attrs]``; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable

TUNERS = ("tune_filter0", "tune_filter1", "tune_filter2", "fit_garch")
FAMILIES = ("k0", "k1", "k2", "garch11", "garch22")
CLI_COMMANDS = ("track", "tune", "simulate", "convergence", "ordering")


def _run_attrs(args, result) -> dict:
    xs, params = args[0], args[1]
    family = f"k{params.k}" if hasattr(params, "k") else f"garch{params.p}{params.q}"
    return {"steps": len(xs), "family": family, "nonfinite": not math.isfinite(result.s_n)}


# (module, attribute, span name, attrs of a finished call)
_BINDINGS: list[tuple[str, str, str, Callable | None]] = [
    ("filters", "gain_schedule", "gains.gain_schedule", None),
    ("tuning", "stability_report", "gains.stability_report", None),
    *[(mod, "run", "filters.run", _run_attrs) for mod in ("tuning", "evaluation", "cli")],
    ("tuning", "ExtendedParams", "filters.params", None),
    ("tuning", "GarchParams", "filters.params", None),
    ("evaluation", "ExtendedParams", "filters.params", None),
    *[
        (mod, "generate_path", "simulate.generate_path",
         lambda a, r: {"intervals": int(r.xs.size)})
        for mod in ("cli", "evaluation")
    ],
    ("cli", "path_csv_text", "simulate.path_csv_text", None),
    *[
        (mod, "compute_heteroscedasticity", "simulate.compute_heteroscedasticity", None)
        for mod in ("cli", "simulate")
    ],
    *[
        (mod, tuner, f"tuning.{tuner}",
         lambda a, r: {"evaluations": len(r.evaluations)})
        for mod in ("cli", "evaluation")
        for tuner in TUNERS
    ],
    ("tuning", "minimize_scalar", "tuning.minimize_scalar", None),
    ("cli", "convergence_experiment", "evaluation.convergence_experiment", None),
    ("cli", "ordering_agreement", "evaluation.ordering_agreement", None),
    ("evaluation", "vn_metric", "evaluation.vn_metric", None),
    ("cli", "load_prices", "cli.load_prices", lambda a, r: {"rows": int(r.prices.size)}),
    ("cli", "atomic_write_text", "cli.write", lambda a, r: {"bytes": len(a[1].encode("utf-8"))}),
]

# Per-layer metrics: name -> unit.  Counts are per pass and deterministic.
PER_LAYER: dict[str, str] = {}
for _name in ("gains.gain_schedule", "gains.stability_report", "filters.params"):
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "filters.run.calls": "count",
    "filters.run.steps": "count",
    "filters.run.self_s": "s",
    "filters.run.ns_per_step": "ns",
    "filters.run.nonfinite": "count",
})
for _family in FAMILIES:
    PER_LAYER[f"filters.run.{_family}.steps"] = "count"
    PER_LAYER[f"filters.run.{_family}.ns_per_step"] = "ns"
PER_LAYER.update({
    "simulate.generate_path.calls": "count",
    "simulate.generate_path.intervals": "count",
    "simulate.generate_path.self_s": "s",
    "simulate.path_csv_text.self_s": "s",
    "simulate.compute_heteroscedasticity.self_s": "s",
})
for _tuner in TUNERS:
    PER_LAYER.update({
        f"tuning.{_tuner}.calls": "count",
        f"tuning.{_tuner}.self_s": "s",
        f"tuning.{_tuner}.runs": "count",
        f"tuning.{_tuner}.evaluations": "count",
        f"tuning.{_tuner}.useful_ratio": "ratio",
    })
PER_LAYER.update({
    "tuning.minimize_scalar.calls": "count",
    "tuning.minimize_scalar.self_s": "s",
    "evaluation.convergence_experiment.self_s": "s",
    "evaluation.ordering_agreement.self_s": "s",
    "evaluation.vn_metric.calls": "count",
    "evaluation.vn_metric.self_s": "s",
})
for _command in CLI_COMMANDS:
    PER_LAYER[f"cli.{_command}.self_s"] = "s"
PER_LAYER.update({
    "cli.load_prices.rows": "count",
    "cli.load_prices.self_s": "s",
    "cli.write.bytes": "B",
    "cli.write.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
})

# Metrics that must repeat exactly between runs with the same seed.
COUNTERS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "B"))


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span."""
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, attrs in _BINDINGS:
            module = importlib.import_module(f"voltrack.{mod_name}")
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, attrs))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        # The wrappers hold these lists, so they are cleared in place.
        self.spans.clear()
        self._stack.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, attrs."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, parent, start, end, attrs) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end, "attrs": attrs}
                ) + "\n")


_TUNER_SPANS = frozenset(f"tuning.{t}" for t in TUNERS)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0) + value

    for sid, (name, parent, start, end, attrs) in enumerate(spans):
        own = end - start - child_time[sid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if not attrs:
            continue
        if name == "filters.run":
            add("filters.run.steps", attrs["steps"])
            add("filters.run.nonfinite", int(attrs["nonfinite"]))
            add(f"filters.run.{attrs['family']}.steps", attrs["steps"])
            add(f"filters.run.{attrs['family']}.self_s", own)
            tuner = parent
            while tuner >= 0 and spans[tuner][0] not in _TUNER_SPANS:
                tuner = spans[tuner][1]
            if tuner >= 0:
                add(f"{spans[tuner][0]}.runs", 1)
        else:
            for key, value in attrs.items():
                add(f"{name}.{key}", value)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "self_s":
            out[metric] = self_s.get(base, 0.0)
        elif field == "ns_per_step":
            steps = sums.get(f"{base}.steps", 0)
            busy = self_s.get(base, 0.0) if base == "filters.run" else sums.get(f"{base}.self_s", 0.0)
            out[metric] = busy / steps * 1e9 if steps else 0.0
        elif field == "useful_ratio":
            runs = sums.get(f"{base}.runs", 0)
            out[metric] = sums.get(f"{base}.evaluations", 0) / runs if runs else 0.0
        elif metric == "trace.spans":
            out[metric] = len(spans)
        elif metric != "trace.overhead_s":
            out[metric] = sums.get(metric, 0)
    return out


def median_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counters from the first traced pass; timings as medians over passes."""
    merged = {}
    for metric in passes[0]:
        if metric in COUNTERS:
            merged[metric] = passes[0][metric]
        else:
            merged[metric] = statistics.median(p[metric] for p in passes)
    return merged
