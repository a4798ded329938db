"""Least-squares parameter search for the tracking filters.

Every tuner minimizes the observable objective S_n, the mean squared
one-step prediction error of the filter against the observation series.
The level filters follow a staged procedure: first the single adaptation
parameter theta with everything else zero, then the long-run level K as
the sample mean, then the relaxation coefficients on a grid (plus a
simplex refinement in the two-coefficient case), and finally a local
coordinate-descent polish of all parameters with shrinking brackets.
Classical GARCH is fitted by variable projection: for fixed recursive
coefficients g the estimates are affine in the constant K and the
reaction coefficients a, so the best K and a solve a small constrained
least-squares problem exactly, and only g is searched, on a grid and
then by multi-start Nelder-Mead, under the stationarity constraint.

All searches use fixed grids, fixed starts and deterministic
refinements, so identical inputs produce identical reports.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import optimize

from .errors import TuningError
from .filters import ExtendedParams, GarchParams, _garch_basis, run

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
# GARCH search: each recursive coefficient is scanned on 11 points of
# [0, 1], with the upper end one ulp inside so that g alone stays below
# one, and the best grid points seed one Nelder-Mead refinement each.
_G_AXIS = tuple(float(v) for v in np.linspace(0.0, math.nextafter(1.0, 0.0), 11))
_GARCH_STARTS = 8
# Relative pivot size below which a small least-squares system is singular.
_SINGULAR = 1e-12
# Rounding allowance, relative to the terms summed, in optimality tests.
_KKT_TOL = 1e-10


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


def _solve_psd(mat: list[list[float]], vec: list[float]) -> list[float] | None:
    """Solve a small symmetric positive semi-definite system.

    Gaussian elimination without pivoting.  Returns None when a pivot
    falls to rounding level against its diagonal entry, that is when the
    system is singular.
    """
    m = len(vec)
    mat = [row[:] for row in mat]
    vec = list(vec)
    diag = [mat[i][i] for i in range(m)]
    for i in range(m):
        piv = mat[i][i]
        if not piv > _SINGULAR * diag[i]:
            return None
        for r in range(i + 1, m):
            f = mat[r][i] / piv
            for c in range(i, m):
                mat[r][c] -= f * mat[i][c]
            vec[r] -= f * vec[i]
    y = [0.0] * m
    for i in range(m - 1, -1, -1):
        y[i] = (vec[i] - sum(mat[i][c] * y[c] for c in range(i + 1, m))) / mat[i][i]
    return y


def _face_minimum(
    gram: list[list[float]],
    rhs: list[float],
    cap: float,
    free: tuple[int, ...],
    pivot: int | None,
) -> list[float] | None:
    """Minimum of t'Gt - 2r't on the affine hull of one face.

    Entries outside `free` are zero.  With a pivot the cap binds:
    t[pivot] is cap minus the other free entries of t[1:].  Returns None
    when the reduced system is singular.
    """
    t = [0.0] * len(rhs)
    if pivot is None:
        mat = [[gram[i][j] for j in free] for i in free]
        y = _solve_psd(mat, [rhs[i] for i in free])
        if y is None:
            return None
        for j, v in zip(free, y):
            t[j] = v
        return t
    others = [j for j in free if j != pivot]
    # Raising t[j] for j >= 1 lowers t[pivot] by as much: w[j] = 1.
    w = [float(j > 0) for j in others]
    gp, gpp, rp = gram[pivot], gram[pivot][pivot], rhs[pivot]
    mat = [
        [
            gram[j][k] - wk * gp[j] - wj * gp[k] + wj * wk * gpp
            for k, wk in zip(others, w)
        ]
        for j, wj in zip(others, w)
    ]
    vec = [rhs[j] - cap * gp[j] - wj * (rp - cap * gpp) for j, wj in zip(others, w)]
    y = _solve_psd(mat, vec)
    if y is None:
        return None
    for j, v in zip(others, y):
        t[j] = v
    t[pivot] = cap - sum(wj * v for wj, v in zip(w, y))
    return t


@functools.lru_cache(maxsize=None)
def _faces(d: int) -> tuple[tuple[tuple[int, ...], int | None], ...]:
    """Faces of {t >= 0, sum(t[1:]) <= cap} in R^d, in the order tried.

    A face is (free entries, pivot): the other entries are zero, and with
    a pivot the cap binds.  Faces with t[0] (the constant K) free come
    first, larger faces before smaller, and cap faces last, which puts
    the usual optima of GARCH fits among the first few.
    """
    subsets = [c for m in range(d, 0, -1) for c in itertools.combinations(range(d), m)]
    subsets.sort(key=lambda c: c[0] != 0)
    capped = [(c, c[-1]) for c in subsets if c[-1] > 0]
    return tuple([(c, None) for c in subsets] + capped)


def _capped_nnls(gram: list[list[float]], rhs: list[float], cap: float) -> list[float]:
    """Minimize t'Gt - 2r't over t >= 0 with sum(t[1:]) <= cap, exactly.

    The minimum of this convex quadratic lies in the relative interior of
    one face of the feasible set, where it is also the minimum over the
    face's affine hull.  Faces are solved that way, in the order of
    _faces, until a solution is feasible and meets the Karush-Kuhn-Tucker
    sign conditions, which make it the global minimum.  A face with a
    singular reduced system is skipped, because one of its own faces then
    reaches the same value.  Should rounding fail every sign test, the feasible
    solution with the lowest value is returned (t = 0 always qualifies).
    """
    d = len(rhs)
    best, best_f = [0.0] * d, 0.0
    for free, pivot in _faces(d):
        t = _face_minimum(gram, rhs, cap, free, pivot)
        if t is None or min(t) < 0.0 or (pivot is None and sum(t[1:]) > cap):
            continue
        terms = [[gram[i][j] * t[j] for j in range(d)] for i in range(d)]
        grad = [sum(row) - r for row, r in zip(terms, rhs)]
        tol = [
            _KKT_TOL * (abs(r) + sum(abs(v) for v in row))
            for row, r in zip(terms, rhs)
        ]
        # Multipliers: lam for the cap (zero where it does not bind),
        # grad[i] + lam for a fixed a_i and grad[0] for a fixed K.
        lam = 0.0 if pivot is None else -grad[pivot]
        if (pivot is None or lam >= -tol[pivot]) and all(
            grad[i] + lam * (i > 0) >= -tol[i] for i in range(d) if i not in free
        ):
            return t
        f = sum(ti * (gi - r) for ti, gi, r in zip(t, grad, rhs))
        if f < best_f:
            best, best_f = t, f
    return best


def _solve_k_a(
    x_arr: np.ndarray, g: tuple[float, ...], q: int
) -> tuple[float, tuple[float, ...]]:
    """Least-squares K and a_1..a_q of GARCH(len(g), q) for fixed g.

    The estimates are affine in (K, a) (filters._garch_basis), so S_n is
    a quadratic in them, minimized exactly over K, a >= 0 and
    sum(a) <= 1 - sum(g).  Where the cap binds, a is then shrunk by a few
    ulps so that sum(g) + sum(a) stays strictly below one.
    """
    basis = _garch_basis(x_arr, g, q)
    cols = basis[:, 1:]
    gram = (cols.T @ cols).tolist()
    rhs = (cols.T @ (x_arr - basis[:, 0])).tolist()
    g_sum = sum(g)
    k_const, *a = _capped_nnls(gram, rhs, 1.0 - g_sum)
    return k_const, _below_one(g_sum, a)


def _below_one(base: float, coeffs: Sequence[float]) -> tuple[float, ...]:
    """coeffs shrunk by the fewest ulps that put base + sum(coeffs) below 1."""
    shrink = 2.0**-53
    while base + sum(coeffs) >= 1.0:
        coeffs = [c * (1.0 - shrink) for c in coeffs]
        shrink *= 2.0
    return tuple(coeffs)


def fit_garch(xs: Sequence[float], p: int = 1, q: int = 1) -> TuningReport:
    """Fit GARCH(p, q) by least squares, with K and a profiled out.

    For fixed recursive coefficients g the estimates are affine in the
    constant K and the coefficients a_1..a_q, so their best values solve
    a small constrained least-squares problem exactly (K, a >= 0 and
    sum(g) + sum(a) < 1; see _solve_k_a), and only g is searched
    (variable projection, Golub and Pereyra 1973).  The search scans a
    grid (11 points per coefficient on [0, 1), pairs with g1 + g2 < 1)
    and refines the 8 best grid points by Nelder-Mead; each refinement is
    one trace stage.  Every value the search sees is a full run, and only
    these feasible runs enter the report, so best_sn is run(best_params).s_n.

    The profile is exact for non-negative observations, as squared
    returns always are: the recursion's zero floor then never fires.  A
    series with negative values can trip the floor; the fit is then a
    heuristic, though best_sn is still the S_n of a real run.
    """
    if p not in (1, 2) or q not in (1, 2):
        raise ValueError(f"p and q must be 1 or 2, got p={p}, q={q}")
    x_arr = _series(xs)
    evaluations: list = []
    sn_of = _make_sn(x_arr, evaluations)
    seen: dict = {}

    def profiled(g: tuple[float, ...]) -> tuple[GarchParams, float]:
        if g not in seen:
            k_const, a = _solve_k_a(x_arr, g, q)
            params = GarchParams(p=p, q=q, k_const=k_const, g_coeffs=g, a_coeffs=a)
            seen[g] = (params, sn_of(params))
        return seen[g]

    # Axis points whose sum rounds to one are pulled just inside.
    grid = [
        _below_one(0.0, g)
        for g in itertools.product(_G_AXIS, repeat=p)
        if sum(g) <= 1.0
    ]
    grid_sn = [profiled(g)[1] for g in grid]
    # sorted is stable: equal values keep the grid order.
    starts = sorted(range(len(grid)), key=grid_sn.__getitem__)[:_GARCH_STARTS]

    def clipped(vec) -> tuple[float, ...]:
        # Negative coefficients are scored at zero, so optima on that
        # boundary are reached exactly.
        return tuple(max(0.0, float(v)) for v in vec)

    def objective(vec) -> float:
        g = clipped(vec)
        # Nelder-Mead orders infinities correctly; a finite penalty could
        # undercut the S_n of a series on a large scale.
        return profiled(g)[1] if sum(g) < 1.0 else math.inf

    names = ["K", *(f"g{j}" for j in range(1, p + 1))]
    names += [f"a{m}" for m in range(1, q + 1)]
    trace = []
    for idx, i in enumerate(starts, start=1):
        res = optimize.minimize(
            objective,
            np.asarray(grid[i]),
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 600, "maxfev": 2000},
        )
        # res.x is the best vertex, already evaluated: a lookup, not a run
        params, value = profiled(clipped(res.x))
        coeffs = (params.k_const, *params.g_coeffs, *params.a_coeffs)
        trace.append(
            TuningStage(name=f"start{idx}", params=dict(zip(names, coeffs)), sn=value)
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
