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
n^{(2k+2)/(2k+3)}.  The three oracle studies score every run through
_scores, the one place that refuses a run whose S_n or V_n overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, VoltrackError
from .filters import ExtendedParams, run, step_spectral_radius
from .gains import MAX_ORDER
from .simulate import PathResult, Scenario, decomposition_diagnostics, sample_paths
from .tuning import TuningReport, fit_garch, tune_filter0, tune_filter1, tune_filter2

__all__ = [
    "ConvergenceResult",
    "OrderingResult",
    "BENCH_METHODS",
    "METHODS",
    "Method",
    "burn_in_index",
    "vn_metric",
    "convergence_experiment",
    "ordering_agreement",
    "shift_sensitivity",
    "benchmark_report",
]


class Method(NamedTuple):
    """How a method is tuned and which explicit track flags it takes.

    tune maps (xs, k) to a TuningReport; only adaptive-k reads the order
    k.  flags maps each explicit flag, in help order, to its value count;
    None marks an optional flag whose count the parameter dataclass checks.
    """

    tune: Callable[..., TuningReport]
    flags: Mapping[str, int | None]


# Method name -> Method: the one place a method name is declared.  Each
# tuner is looked up in this module at call time, so wrappers set on these
# bindings (perfbench/tracer.py) see every tuner call.
METHODS: dict[str, Method] = {
    "garch11": Method(lambda xs, k: fit_garch(xs, 1, 1), {"level": 1, "g": 1, "a": 1}),
    "garch22": Method(lambda xs, k: fit_garch(xs, 2, 2), {"level": 1, "g": 2, "a": 2}),
    "filter0": Method(lambda xs, k: tune_filter0(xs, 0), {"theta": 1}),
    "filter1": Method(lambda xs, k: tune_filter1(xs), {"theta": 1, "a": 1, "level": 1}),
    "filter2": Method(lambda xs, k: tune_filter2(xs), {"theta": 1, "a": 2, "level": 1}),
    "adaptive-k": Method(
        lambda xs, k: tune_filter0(xs, k), {"theta": 1, "a": None, "level": None}
    ),
}

BENCH_METHODS = tuple(name for name in METHODS if name != "adaptive-k")

_MIN_BENCH_LENGTH = 100


@dataclass(frozen=True)
class ConvergenceResult:
    """Oracle-loss decay across sample sizes, with a fitted log-log slope."""

    n_values: tuple[int, ...]
    mse_values: tuple[float, ...]
    fitted_slope: float
    theoretical_slope: float
    seeds_per_n: int


@dataclass(frozen=True)
class OrderingResult:
    """Mean S_n and mean V_n across a theta grid, with rank agreement."""

    theta_grid: tuple[float, ...]
    sn_values: tuple[float, ...]
    vn_values: tuple[float, ...]
    kendall_tau: float
    argmin_match: bool


def burn_in_index(n: int, k: int) -> int:
    """First index trusted for oracle evaluation.

    min(ceil(n^((2k+2)/(2k+3))), n//4): the layer where the
    initialization error decays, capped so evaluation never starves.
    """
    if n < 2:
        raise ValueError(f"sample size n must be at least 2, got {n}")
    if k < 0 or k > MAX_ORDER:
        raise ValueError(f"smoothness order k must be in 0..{MAX_ORDER}")
    exponent = (2.0 * k + 2.0) / (2.0 * k + 3.0)
    return math.ceil(min(n**exponent, n // 4))


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


def _scores(
    path: PathResult, xs, params: ExtendedParams, burn: int
) -> tuple[float, float]:
    """S_n and V_n of the filter params run over xs, the observations of
    path (or a shift of them), with V_n against path.v_bar past burn.

    A diverging run overflows; it raises DataError naming theta and the
    seed of the path instead of warning and returning a non-finite loss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        result = run(xs, params)
        vn = vn_metric(path.v_bar, result.estimates, burn)
    if not (math.isfinite(result.s_n) and math.isfinite(vn)):
        raise DataError(
            f"the order-{params.k} filter diverges at theta = {params.theta!r} "
            f"on the path of seed {path.seed}"
        )
    return result.s_n, vn


def convergence_experiment(
    scenario: Scenario,
    k: int,
    n_values: Sequence[int],
    seeds: int,
    base_seed: int = 0,
) -> ConvergenceResult:
    """Measure how the post-burn-in oracle loss decays with n.

    For each n, theta is tuned once on a held-out path (seed outside the
    evaluation range) and the resulting pure order-k filter is evaluated
    on `seeds` fresh paths; the per-n means feed a least-squares slope in
    log-log coordinates, compared against -2(k+1)/(2k+3).  All paths of
    one n come from one sampler, which integrates the interval means once.
    """
    ns = [int(n) for n in n_values]
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be at least 3 strictly increasing sizes")
    if ns[-1] < 10 * ns[0]:
        raise ValueError("n_values must span at least one decade")
    if seeds < 10:
        raise ValueError(f"need at least 10 seeds, got {seeds}")
    burns = [burn_in_index(n, k) for n in ns]
    mse_values = []
    for idx, (n, burn) in enumerate(zip(ns, burns)):
        # the held-out path first, then one evaluation path at a time
        paths = sample_paths(
            scenario, n, [base_seed + seeds + idx, *range(base_seed, base_seed + seeds)]
        )
        params = tune_filter0(next(paths).xs, k).best_params
        per_seed = [_scores(path, path.xs, params, burn)[1] for path in paths]
        mse_values.append(float(np.mean(per_seed)))
    if any(not (math.isfinite(m) and m > 0.0) for m in mse_values):
        raise ValueError("mse_values must be positive and finite")
    fitted = float(np.polyfit(np.log(ns), np.log(mse_values), 1)[0])
    theoretical = -2.0 * (k + 1.0) / (2.0 * k + 3.0)
    return ConvergenceResult(
        n_values=tuple(ns),
        mse_values=tuple(mse_values),
        fitted_slope=fitted,
        theoretical_slope=theoretical,
        seeds_per_n=int(seeds),
    )


def _kendall_tau_b(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall's tau-b of two equally long sequences, NaN when every pair
    is tied in xs or in ys.

    All m(m-1)/2 pairs are counted with exact integers, and the division
    and clipping follow scipy.stats.kendalltau (SciPy 1.17), so the two
    agree bit for bit: S / sqrt(P - Tx) / sqrt(P - Ty) with S concordant
    minus discordant pairs, P all pairs and Tx, Ty the pairs tied in xs
    and in ys.
    """
    m = len(xs)
    s = tied_x = tied_y = 0
    for i in range(m):
        for j in range(i + 1, m):
            sign_x = (xs[j] > xs[i]) - (xs[j] < xs[i])
            sign_y = (ys[j] > ys[i]) - (ys[j] < ys[i])
            tied_x += sign_x == 0
            tied_y += sign_y == 0
            s += sign_x * sign_y
    pairs = m * (m - 1) // 2
    if tied_x == pairs or tied_y == pairs:
        return math.nan
    tau = s / math.sqrt(pairs - tied_x) / math.sqrt(pairs - tied_y)
    return min(1.0, max(-1.0, tau))


def ordering_agreement(
    scenario: Scenario,
    theta_grid: Sequence[float],
    n: int,
    seeds: int,
    k: int = 0,
    base_seed: int = 0,
) -> OrderingResult:
    """Compare the observable and oracle losses across a theta grid.

    Both losses are averaged over the same paths per theta; Kendall's
    tau between the two mean sequences quantifies how reliably sorting
    by S_n sorts by V_n, and argmin_match reports whether the two grid
    minimizers coincide.  A theta outside the filter's stability region
    for n (step_spectral_radius of at least 1) raises DataError naming it
    before any run, and so does a theta whose filter still overflows (a
    non-finite S_n or V_n on any path, refused by _scores).
    """
    grid = [float(t) for t in theta_grid]
    if len(grid) < 10 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("theta_grid must be at least 10 strictly increasing values")
    if seeds < 10:
        raise ValueError(f"need at least 10 seeds, got {seeds}")
    burn = burn_in_index(n, k)
    # built first, so a bad theta is refused as ExtendedParams words it
    grid_params = [ExtendedParams(k, theta) for theta in grid]
    for theta in grid:
        radius = step_spectral_radius(k, theta, n)
        if radius >= 1.0:
            raise DataError(
                f"the order-{k} filter diverges at theta = {theta!r} for n = {n}: "
                f"its one-step matrix has spectral radius {radius:.3g} (stable below 1)"
            )
    paths = list(sample_paths(scenario, n, range(base_seed, base_seed + seeds)))
    sn_means, vn_means = [], []
    for params in grid_params:
        sns, vns = zip(*(_scores(path, path.xs, params, burn) for path in paths))
        sn_means.append(float(np.mean(sns)))
        vn_means.append(float(np.mean(vns)))
    tau = _kendall_tau_b(sn_means, vn_means)
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
    burn = burn_in_index(n, k)
    paths = sample_paths(scenario, n, [base_seed + seeds, *range(base_seed, base_seed + seeds)])
    params = tune_filter0(next(paths).xs, k).best_params
    rel_changes = []
    for path in paths:
        shift = decomposition_diagnostics(path).theta
        raw = _scores(path, path.xs, params, burn)[1]
        shifted = _scores(path, path.xs - shift, params, burn)[1]
        rel_changes.append(abs(shifted - raw) / raw)
    return float(np.mean(rel_changes))


def benchmark_report(
    series_set: Mapping[str, Sequence[float]],
) -> dict[str, dict[str, float | None]]:
    """Tune every method on every series and tabulate the best S_n, as
    {series name: {method: best S_n}} with methods in BENCH_METHODS order.

    A method that fails on a series (infeasible fit, degenerate data)
    leaves its cell None instead of aborting the whole table.
    """
    if not series_set:
        raise ValueError("series_set must not be empty")
    table = {}
    for name, series in series_set.items():
        xs = np.asarray(series, dtype=float)
        if xs.ndim != 1 or xs.size < _MIN_BENCH_LENGTH:
            raise ValueError(
                f"series {name!r} must be 1-D with at least "
                f"{_MIN_BENCH_LENGTH} observations"
            )
        cells = table[name] = {}
        for method in BENCH_METHODS:
            try:
                cells[method] = float(METHODS[method].tune(xs, None).best_sn)
            except (VoltrackError, ValueError):
                cells[method] = None
    return table
