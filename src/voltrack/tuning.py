"""Least-squares parameter search for the tracking filters.

Every tuner minimizes the observable objective S_n, the mean squared
one-step prediction error of the filter against the observation series.
The level filters follow a staged procedure: first the single adaptation
parameter theta with everything else zero, then the long-run level K as
the sample mean, then the relaxation coefficients on a grid (plus a
simplex refinement in the two-coefficient case), and finally a local
coordinate-descent polish of all parameters with shrinking brackets.
Classical GARCH is fitted by multi-start Nelder-Mead under the
stationarity constraint.

All searches use fixed grids, fixed starts and deterministic
refinements, so identical inputs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import optimize

from .errors import TuningError
from .filters import ExtendedParams, GarchParams, run

__all__ = [
    "TuningStage",
    "TuningReport",
    "minimize_scalar",
    "tune_filter0",
    "tune_filter1",
    "tune_filter2",
    "fit_garch",
]

_THETA_LO = 1e-2
_THETA_HI = 1e3
_THETA_TOL = 1e-4
_MIN_SAMPLES = 50
_GRID_POINTS = 25
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_POLISH_FRACS = (0.25, 0.125, 0.0625)
# Large finite stand-in so the scalar minimizer can order diverged or
# infeasible points without tripping its non-finite guard.
_PENALTY = 1e12


@dataclass(frozen=True)
class TuningStage:
    """One stage of a staged search: name, chosen values, achieved S_n."""

    name: str
    params: Mapping[str, float]
    sn: float


@dataclass(frozen=True)
class TuningReport:
    """Outcome of a parameter search.

    evaluations holds every (params, s_n) pair whose run completed with
    a finite objective; best_sn is their minimum.  trace logs the staged
    procedure (or the individual starts for GARCH).
    """

    best_params: ExtendedParams | GarchParams
    best_sn: float
    evaluations: tuple
    trace: tuple[TuningStage, ...]


def minimize_scalar(
    objective: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Minimize a scalar function on [lo, hi]; returns (argmin, value).

    Scans a 25-point coarse grid (log-spaced when the interval sign
    allows) and refines around the best grid point by golden-section
    search until the bracket is narrower than tol.  The best point
    actually evaluated is returned, so a monotone objective yields the
    boundary.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if lo > 0.0:
        grid = np.geomspace(lo, hi, _GRID_POINTS)
    elif lo == 0.0:
        grid = np.concatenate(([0.0], np.geomspace(hi * 1e-6, hi, _GRID_POINTS - 1)))
    else:
        grid = np.linspace(lo, hi, _GRID_POINTS)

    best_x = best_f = None

    def f(x: float) -> float:
        nonlocal best_x, best_f
        x = float(x)
        value = float(objective(x))
        if not math.isfinite(value):
            raise TuningError(f"objective returned non-finite value at x={x!r}")
        if best_f is None or value < best_f:
            best_x, best_f = x, value
        return value

    values = [f(x) for x in grid]
    i = int(np.argmin(values))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, len(grid) - 1)])
    if b - a > tol:
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(500):
            if b - a <= tol:
                break
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = f(d)
    return best_x, best_f


def _series(xs: Sequence[float]) -> np.ndarray:
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1:
        raise ValueError("observation series must be one-dimensional")
    if arr.size < _MIN_SAMPLES:
        raise ValueError(
            f"tuning needs at least {_MIN_SAMPLES} observations, got {arr.size}"
        )
    return arr


def _make_sn(x_arr: np.ndarray, evaluations: list) -> Callable:
    def sn_of(params) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            value = run(x_arr, params).s_n
        if not math.isfinite(value):
            # diverged run: steer the search away without recording
            return _PENALTY
        evaluations.append((params, value))
        return value

    return sn_of


def _theta_stage(
    x_arr: np.ndarray,
    k: int,
    a_coeffs: tuple[float, ...],
    k_level: float,
    sn_of: Callable,
) -> tuple[float, float]:
    def objective(theta: float) -> float:
        return sn_of(
            ExtendedParams(k=k, theta=theta, a_coeffs=a_coeffs, k_level=k_level)
        )

    return minimize_scalar(objective, _THETA_LO, _THETA_HI, _THETA_TOL)


def _polish(
    point: list[float],
    bounds: Sequence[tuple[float, float | None]],
    make_params: Callable,
    sn_of: Callable,
    best_sn: float,
) -> tuple[list[float], float]:
    """Cyclic coordinate descent with shrinking relative brackets.

    Each pass minimizes one coordinate on [x-h, x+h] with h a fraction
    of |x| (so coordinates sitting at zero stay put); moves are accepted
    only when they improve the incumbent.
    """
    point = list(point)
    for frac in _POLISH_FRACS:
        for j in range(len(point)):
            x = point[j]
            half = frac * abs(x)
            if half == 0.0:
                continue
            lo, hi = x - half, x + half
            blo, bhi = bounds[j]
            lo = max(lo, blo)
            if bhi is not None:
                hi = min(hi, bhi)
            if not lo < hi:
                continue

            def objective(val: float, j=j) -> float:
                trial = list(point)
                trial[j] = val
                return sn_of(make_params(trial))

            cand, cand_sn = minimize_scalar(
                objective, lo, hi, max(half * 1e-3, 1e-12)
            )
            if cand_sn < best_sn:
                point[j] = cand
                best_sn = cand_sn
    return point, best_sn


def tune_filter0(xs: Sequence[float], k: int = 0) -> TuningReport:
    """Tune the pure order-k filter: one-dimensional search over theta."""
    x_arr = _series(xs)
    evaluations: list = []
    sn_of = _make_sn(x_arr, evaluations)
    zeros = (0.0,) * (k + 1)
    theta, sn = _theta_stage(x_arr, k, zeros, 0.0, sn_of)
    best = ExtendedParams(k=k, theta=theta, a_coeffs=zeros, k_level=0.0)
    trace = (TuningStage(name="theta", params={"theta": theta}, sn=sn),)
    return TuningReport(
        best_params=best, best_sn=sn, evaluations=tuple(evaluations), trace=trace
    )


def tune_filter1(xs: Sequence[float]) -> TuningReport:
    """Staged search for the one-coefficient level filter (k=0).

    Stages: theta with a_1=K=0; K = sample mean of the observations;
    a_1 on [0, n/10]; coordinate-descent polish of (theta, K, a_1).
    """
    x_arr = _series(xs)
    n = int(x_arr.size)
    evaluations: list = []
    sn_of = _make_sn(x_arr, evaluations)

    theta, sn1 = _theta_stage(x_arr, 0, (0.0,), 0.0, sn_of)
    trace = [TuningStage(name="theta", params={"theta": theta}, sn=sn1)]

    k_level = float(np.mean(x_arr))
    sn2 = sn_of(ExtendedParams(k=0, theta=theta, a_coeffs=(0.0,), k_level=k_level))
    trace.append(TuningStage(name="K", params={"theta": theta, "K": k_level}, sn=sn2))

    # run() requires max(a) strictly below n/10, so the closed search box
    # [0, n/10] is capped one ulp inside.
    a_hi = math.nextafter(n / 10.0, 0.0)

    def a_objective(a1: float) -> float:
        return sn_of(ExtendedParams(k=0, theta=theta, a_coeffs=(a1,), k_level=k_level))

    a1, sn3 = minimize_scalar(a_objective, 0.0, a_hi, _THETA_TOL)
    trace.append(
        TuningStage(name="a1", params={"theta": theta, "K": k_level, "a1": a1}, sn=sn3)
    )

    def make_params(pt: list[float]) -> ExtendedParams:
        return ExtendedParams(k=0, theta=pt[0], a_coeffs=(pt[2],), k_level=pt[1])

    bounds = [(_THETA_LO, _THETA_HI), (0.0, None), (0.0, a_hi)]
    point, sn4 = _polish([theta, k_level, a1], bounds, make_params, sn_of, sn3)
    best = make_params(point)
    trace.append(
        TuningStage(
            name="polish",
            params={"theta": point[0], "K": point[1], "a1": point[2]},
            sn=sn4,
        )
    )
    return TuningReport(
        best_params=best, best_sn=sn4, evaluations=tuple(evaluations), trace=tuple(trace)
    )


def tune_filter2(xs: Sequence[float]) -> TuningReport:
    """Staged search for the two-coefficient level filter (k=1).

    Stages: theta with a=K=0; K = sample mean; (a_1, a_2) on a coarse
    positive grid refined by Nelder-Mead inside the stable region
    (both coefficients positive, or both zero); coordinate-descent
    polish of (theta, K, a_1, a_2).
    """
    x_arr = _series(xs)
    n = int(x_arr.size)
    evaluations: list = []
    sn_of = _make_sn(x_arr, evaluations)

    theta, sn1 = _theta_stage(x_arr, 1, (0.0, 0.0), 0.0, sn_of)
    trace = [TuningStage(name="theta", params={"theta": theta}, sn=sn1)]

    k_level = float(np.mean(x_arr))
    sn2 = sn_of(ExtendedParams(k=1, theta=theta, a_coeffs=(0.0, 0.0), k_level=k_level))
    trace.append(TuningStage(name="K", params={"theta": theta, "K": k_level}, sn=sn2))

    a_hi = math.nextafter(n / 10.0, 0.0)
    axis = [float(v) for v in np.geomspace(n * 1e-4, a_hi, 6)]
    best_pair = (0.0, 0.0)
    sn3 = sn2  # the all-zero corner is exactly the stage-2 evaluation
    for a1 in axis:
        for a2 in axis:
            value = sn_of(
                ExtendedParams(k=1, theta=theta, a_coeffs=(a1, a2), k_level=k_level)
            )
            if value < sn3:
                sn3, best_pair = value, (a1, a2)

    if best_pair != (0.0, 0.0):

        def nm_objective(ab) -> float:
            nonlocal sn3, best_pair
            a1, a2 = float(ab[0]), float(ab[1])
            if not (0.0 < a1 <= a_hi and 0.0 < a2 <= a_hi):
                excess = max(0.0, -a1) + max(0.0, -a2)
                excess += max(0.0, a1 - a_hi) + max(0.0, a2 - a_hi)
                return _PENALTY * (1.0 + excess)
            value = sn_of(
                ExtendedParams(k=1, theta=theta, a_coeffs=(a1, a2), k_level=k_level)
            )
            if value < sn3:
                sn3, best_pair = value, (a1, a2)
            return value

        optimize.minimize(
            nm_objective,
            np.asarray(best_pair),
            method="Nelder-Mead",
            options={"xatol": 1e-8 * max(1.0, a_hi), "fatol": 1e-14, "maxiter": 400},
        )

    trace.append(
        TuningStage(
            name="a1_a2",
            params={
                "theta": theta,
                "K": k_level,
                "a1": best_pair[0],
                "a2": best_pair[1],
            },
            sn=sn3,
        )
    )

    def make_params(pt: list[float]) -> ExtendedParams:
        return ExtendedParams(k=1, theta=pt[0], a_coeffs=(pt[2], pt[3]), k_level=pt[1])

    bounds = [(_THETA_LO, _THETA_HI), (0.0, None), (0.0, a_hi), (0.0, a_hi)]
    point, sn4 = _polish(
        [theta, k_level, best_pair[0], best_pair[1]], bounds, make_params, sn_of, sn3
    )
    best = make_params(point)
    trace.append(
        TuningStage(
            name="polish",
            params={
                "theta": point[0],
                "K": point[1],
                "a1": point[2],
                "a2": point[3],
            },
            sn=sn4,
        )
    )
    return TuningReport(
        best_params=best, best_sn=sn4, evaluations=tuple(evaluations), trace=tuple(trace)
    )


def fit_garch(xs: Sequence[float], p: int = 1, q: int = 1) -> TuningReport:
    """Fit GARCH(p, q) by multi-start Nelder-Mead least squares.

    Eight deterministic starts cover low/high persistence and low/high
    reaction; the constraint set (all coefficients non-negative, their
    sum strictly below one) is enforced through a penalty, and only
    feasible parameter sets enter the report.
    """
    if p not in (1, 2) or q not in (1, 2):
        raise ValueError(f"p and q must be 1 or 2, got p={p}, q={q}")
    x_arr = _series(xs)
    mean_x = float(np.mean(x_arr))
    evaluations: list = []
    sn_of = _make_sn(x_arr, evaluations)

    def objective(vec) -> float:
        k_const = float(vec[0])
        g = tuple(float(v) for v in vec[1 : 1 + p])
        a = tuple(float(v) for v in vec[1 + p :])
        viol = max(0.0, -k_const)
        viol += sum(max(0.0, -c) for c in g + a)
        total = sum(g) + sum(a)
        if viol > 0.0 or total >= 1.0:
            return _PENALTY * (1.0 + viol + max(0.0, total - 1.0))
        return sn_of(GarchParams(p=p, q=q, k_const=k_const, g_coeffs=g, a_coeffs=a))

    starts = []
    for k0 in (0.0, 0.1 * mean_x):
        for gsum in (0.4, 0.8):
            for asum in (0.05, 0.15):
                starts.append([k0] + [gsum / p] * p + [asum / q] * q)

    trace = []
    for idx, start in enumerate(starts, start=1):
        res = optimize.minimize(
            objective,
            np.asarray(start),
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 600, "maxfev": 2000},
        )
        names = ["K"] + [f"g{j}" for j in range(1, p + 1)] + [
            f"a{m}" for m in range(1, q + 1)
        ]
        trace.append(
            TuningStage(
                name=f"start{idx}",
                params=dict(zip(names, (float(v) for v in res.x))),
                sn=float(res.fun),
            )
        )
    if not evaluations:
        raise TuningError("no feasible GARCH parameter set was evaluated")
    # min returns the first of equal minima: ties go to the earliest evaluation.
    best_params, best_sn = min(evaluations, key=lambda e: e[1])
    return TuningReport(
        best_params=best_params,
        best_sn=best_sn,
        evaluations=tuple(evaluations),
        trace=tuple(trace),
    )
