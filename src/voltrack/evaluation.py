"""Experiment harness: oracle metrics, rate and ordering studies, benchmarks.

Two losses drive everything here.  S_n is observable: the mean squared
one-step prediction error against the observation series, the quantity
the tuners minimize.  V_n is the oracle loss: the mean squared error
against the true interval-average volatility, computable only in
simulation.  The experiments quantify how far minimizing S_n gets you
toward minimizing V_n, and at what rate the oracle loss shrinks with
the sample size.

Estimates inside the initial boundary layer still carry initialization
error, so V_n is always evaluated past a burn-in index that grows like
n^{(2k+2)/(2k+3)}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import stats

from .errors import VoltrackError
from .filters import ExtendedParams, run
from .ioutil import float_repr
from .simulate import Scenario, decomposition_diagnostics, generate_path
from .tuning import TuningReport, fit_garch, tune_filter0, tune_filter1, tune_filter2

__all__ = [
    "ConvergenceResult",
    "OrderingResult",
    "BenchReport",
    "BENCH_METHODS",
    "TUNERS",
    "burn_in_index",
    "vn_metric",
    "convergence_experiment",
    "ordering_agreement",
    "shift_sensitivity",
    "benchmark_report",
    "convergence_csv_text",
    "convergence_json_text",
    "convergence_plot_text",
    "ordering_csv_text",
    "ordering_json_text",
    "bench_csv_text",
    "bench_json_text",
]

SCHEMA_VERSION = 1

BENCH_METHODS = ("garch11", "garch22", "filter0", "filter1", "filter2")

# Method name -> tuner of (xs, k); only adaptive-k reads the order k.  Each
# entry looks its tuner up in this module at call time, so wrappers set on
# these bindings (perfbench/tracer.py) see every tuner call.
TUNERS: dict[str, Callable[..., TuningReport]] = {
    "garch11": lambda xs, k: fit_garch(xs, 1, 1),
    "garch22": lambda xs, k: fit_garch(xs, 2, 2),
    "filter0": lambda xs, k: tune_filter0(xs, 0),
    "filter1": lambda xs, k: tune_filter1(xs),
    "filter2": lambda xs, k: tune_filter2(xs),
    "adaptive-k": lambda xs, k: tune_filter0(xs, k),
}

_MIN_BENCH_LENGTH = 100


@dataclass(frozen=True)
class ConvergenceResult:
    """Oracle-loss decay across sample sizes, with a fitted log-log slope."""

    n_values: tuple[int, ...]
    mse_values: tuple[float, ...]
    fitted_slope: float
    theoretical_slope: float
    seeds_per_n: int

    def __post_init__(self):
        if len(self.n_values) < 3:
            raise ValueError("need at least 3 sample sizes")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if len(self.mse_values) != len(self.n_values):
            raise ValueError("mse_values must match n_values in length")
        if any(not (math.isfinite(m) and m > 0.0) for m in self.mse_values):
            raise ValueError("mse_values must be positive and finite")


@dataclass(frozen=True)
class OrderingResult:
    """Mean S_n and mean V_n across a theta grid, with rank agreement."""

    theta_grid: tuple[float, ...]
    sn_values: tuple[float, ...]
    vn_values: tuple[float, ...]
    kendall_tau: float
    argmin_match: bool

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.theta_grid, self.theta_grid[1:])):
            raise ValueError("theta_grid must be strictly increasing")
        if not (len(self.theta_grid) == len(self.sn_values) == len(self.vn_values)):
            raise ValueError("per-theta sequences must share one length")


@dataclass(frozen=True)
class BenchReport:
    """Per-series, per-method best S_n table; failed cells are None."""

    rows: tuple[tuple[str, int], ...]
    columns: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]

    def __post_init__(self):
        if len(self.cells) != len(self.rows):
            raise ValueError("one cell row per series row required")
        for row in self.cells:
            if len(row) != len(self.columns):
                raise ValueError("one cell per column required")
            if any(c is not None and c < 0.0 for c in row):
                raise ValueError("cells must be non-negative where present")


def burn_in_index(n: int, k: int, c: float = 1.0) -> int:
    """First index trusted for oracle evaluation.

    min(ceil(c * n^((2k+2)/(2k+3))), n//4): the layer where the
    initialization error decays, capped so evaluation never starves.
    """
    if n < 2:
        raise ValueError(f"sample size n must be at least 2, got {n}")
    if k < 0:
        raise ValueError(f"smoothness order k must be non-negative, got {k}")
    if not c > 0.0:
        raise ValueError(f"scale factor c must be positive, got {c}")
    exponent = (2.0 * k + 2.0) / (2.0 * k + 3.0)
    return min(math.ceil(c * n**exponent), n // 4)


def vn_metric(v_true, estimates, burn_in: int) -> float:
    """Mean squared estimate error over indices at and past burn_in."""
    v_arr = np.asarray(v_true, dtype=float)
    e_arr = np.asarray(estimates, dtype=float)
    if v_arr.shape != e_arr.shape or v_arr.ndim != 1:
        raise ValueError("v_true and estimates must be 1-D with equal length")
    if not 0 <= burn_in < v_arr.size:
        raise ValueError(f"burn_in must lie in [0, {v_arr.size}), got {burn_in}")
    diff = v_arr[burn_in:] - e_arr[burn_in:]
    return float(np.mean(diff * diff))


def _pure_params(k: int, theta: float) -> ExtendedParams:
    return ExtendedParams(k=k, theta=theta, a_coeffs=(0.0,) * (k + 1), k_level=0.0)


def convergence_experiment(
    scenario: Scenario,
    k: int,
    n_values: Sequence[int],
    seeds: int,
    base_seed: int = 0,
    burn_c: float = 1.0,
) -> ConvergenceResult:
    """Measure how the post-burn-in oracle loss decays with n.

    For each n, theta is tuned once on a held-out path (seed outside the
    evaluation range) and the resulting pure order-k filter is evaluated
    on `seeds` fresh paths; the per-n means feed a least-squares slope in
    log-log coordinates, compared against -2(k+1)/(2k+3).
    """
    ns = [int(n) for n in n_values]
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be at least 3 strictly increasing sizes")
    if ns[-1] < 10 * ns[0]:
        raise ValueError("n_values must span at least one decade")
    if seeds < 10:
        raise ValueError(f"need at least 10 seeds, got {seeds}")
    mse_values = []
    for idx, n in enumerate(ns):
        held_out = generate_path(scenario, n, base_seed + seeds + idx)
        theta = tune_filter0(held_out.xs, k).best_params.theta
        params = _pure_params(k, theta)
        burn = burn_in_index(n, k, burn_c)
        per_seed = []
        for j in range(seeds):
            path = generate_path(scenario, n, base_seed + j)
            result = run(path.xs, params)
            per_seed.append(vn_metric(path.v_bar, result.estimates, burn))
        mse_values.append(float(np.mean(per_seed)))
    fitted = float(np.polyfit(np.log(ns), np.log(mse_values), 1)[0])
    theoretical = -2.0 * (k + 1.0) / (2.0 * k + 3.0)
    return ConvergenceResult(
        n_values=tuple(ns),
        mse_values=tuple(mse_values),
        fitted_slope=fitted,
        theoretical_slope=theoretical,
        seeds_per_n=int(seeds),
    )


def ordering_agreement(
    scenario: Scenario,
    theta_grid: Sequence[float],
    n: int,
    seeds: int,
    k: int = 0,
    base_seed: int = 0,
    burn_c: float = 1.0,
) -> OrderingResult:
    """Compare the observable and oracle losses across a theta grid.

    Both losses are averaged over the same paths per theta; Kendall's
    tau between the two mean sequences quantifies how reliably sorting
    by S_n sorts by V_n, and argmin_match reports whether the two grid
    minimizers coincide.
    """
    grid = [float(t) for t in theta_grid]
    if len(grid) < 10 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("theta_grid must be at least 10 strictly increasing values")
    if seeds < 10:
        raise ValueError(f"need at least 10 seeds, got {seeds}")
    burn = burn_in_index(n, k, burn_c)
    paths = [generate_path(scenario, n, base_seed + j) for j in range(seeds)]
    sn_means, vn_means = [], []
    for theta in grid:
        params = _pure_params(k, theta)
        sns, vns = [], []
        for path in paths:
            result = run(path.xs, params)
            sns.append(result.s_n)
            vns.append(vn_metric(path.v_bar, result.estimates, burn))
        sn_means.append(float(np.mean(sns)))
        vn_means.append(float(np.mean(vns)))
    tau = float(stats.kendalltau(sn_means, vn_means).statistic)
    match = bool(int(np.argmin(sn_means)) == int(np.argmin(vn_means)))
    return OrderingResult(
        theta_grid=tuple(grid),
        sn_values=tuple(sn_means),
        vn_values=tuple(vn_means),
        kendall_tau=tau,
        argmin_match=match,
    )


def shift_sensitivity(
    scenario: Scenario,
    k: int,
    n: int,
    seeds: int,
    base_seed: int = 0,
    burn_c: float = 1.0,
) -> float:
    """Mean relative change of the oracle loss when the O(delta) shift
    is removed from the observations before filtering.

    The deterministic part of the observation noise is a nuisance term
    of order delta; filtering X - theta instead of X should matter less
    and less as n grows.  Returns the mean over seeds of
    |V_n(shifted) - V_n(raw)| / V_n(raw).
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    held_out = generate_path(scenario, n, base_seed + seeds)
    theta_hat = tune_filter0(held_out.xs, k).best_params.theta
    params = _pure_params(k, theta_hat)
    burn = burn_in_index(n, k, burn_c)
    rel_changes = []
    for j in range(seeds):
        path = generate_path(scenario, n, base_seed + j)
        shift = decomposition_diagnostics(scenario, path).theta
        raw = vn_metric(path.v_bar, run(path.xs, params).estimates, burn)
        shifted = vn_metric(
            path.v_bar, run(path.xs - shift, params).estimates, burn
        )
        rel_changes.append(abs(shifted - raw) / raw)
    return float(np.mean(rel_changes))


def benchmark_report(series_set: Mapping[str, Sequence[float]]) -> BenchReport:
    """Tune every method on every series and tabulate the best S_n.

    A method that fails on a series (infeasible fit, degenerate data)
    leaves its cell absent instead of aborting the whole table.
    """
    if not series_set:
        raise ValueError("series_set must not be empty")
    rows = []
    cells = []
    for name, series in series_set.items():
        xs = np.asarray(series, dtype=float)
        if xs.ndim != 1 or xs.size < _MIN_BENCH_LENGTH:
            raise ValueError(
                f"series {name!r} must be 1-D with at least "
                f"{_MIN_BENCH_LENGTH} observations"
            )
        rows.append((str(name), int(xs.size)))
        row_cells = []
        for method in BENCH_METHODS:
            try:
                row_cells.append(float(TUNERS[method](xs, None).best_sn))
            except (VoltrackError, ValueError):
                row_cells.append(None)
        cells.append(tuple(row_cells))
    return BenchReport(rows=tuple(rows), columns=BENCH_METHODS, cells=tuple(cells))


# --- serialization ------------------------------------------------------------

def convergence_csv_text(result: ConvergenceResult) -> str:
    lines = ["n,mse"]
    for n, mse in zip(result.n_values, result.mse_values):
        lines.append(f"{n},{float_repr(mse)}")
    return "\n".join(lines) + "\n"


def convergence_plot_text(result: ConvergenceResult) -> str:
    """Two columns (log n, log mse), ready for external plotting tools."""
    lines = [
        f"{float_repr(math.log(n))} {float_repr(math.log(mse))}"
        for n, mse in zip(result.n_values, result.mse_values)
    ]
    return "\n".join(lines) + "\n"


def convergence_json_text(result: ConvergenceResult) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "convergence",
        "n_values": list(result.n_values),
        "mse_values": list(result.mse_values),
        "fitted_slope": result.fitted_slope,
        "theoretical_slope": result.theoretical_slope,
        "seeds_per_n": result.seeds_per_n,
    }
    return json.dumps(doc, indent=2) + "\n"


def ordering_csv_text(result: OrderingResult) -> str:
    lines = ["theta,sn,vn"]
    for theta, sn, vn in zip(result.theta_grid, result.sn_values, result.vn_values):
        lines.append(f"{float_repr(theta)},{float_repr(sn)},{float_repr(vn)}")
    return "\n".join(lines) + "\n"


def ordering_json_text(result: OrderingResult) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ordering",
        "theta_grid": list(result.theta_grid),
        "sn_values": list(result.sn_values),
        "vn_values": list(result.vn_values),
        "kendall_tau": result.kendall_tau,
        "argmin_match": result.argmin_match,
    }
    return json.dumps(doc, indent=2) + "\n"


def bench_csv_text(report: BenchReport) -> str:
    lines = ["series,method,sn"]
    for (name, _), row in zip(report.rows, report.cells):
        for method, cell in zip(report.columns, row):
            value = "" if cell is None else float_repr(cell)
            lines.append(f"{name},{method},{value}")
    return "\n".join(lines) + "\n"


def bench_json_text(report: BenchReport) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "columns": list(report.columns),
        "rows": [
            {"name": name, "n": n, "cells": dict(zip(report.columns, row))}
            for (name, n), row in zip(report.rows, report.cells)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
