"""Least-squares parameter search for the tracking filters.

Every tuner minimizes the observable objective S_n, the mean squared
one-step prediction error of the filter against the observation series.
The level filters (k = 0 and 1) share one staged procedure: first the
single adaptation parameter theta with everything else zero, then the
long-run level K as the sample mean, then the relaxation coefficients,
and finally a local coordinate-descent polish of all parameters with
shrinking brackets.  Only the relaxation search depends on k: the scalar
minimizer for a_1, or a grid plus a simplex refinement for (a_1, a_2).
Classical GARCH is fitted by variable projection: for fixed recursive
coefficients g the estimates are affine in the constant K and the
reaction coefficients a, so the best K and a solve a small constrained
least-squares problem exactly, and only g is searched, on a grid and
then by multi-start Nelder-Mead, under the stationarity constraint.

Every tuner takes a plain series or a filters.PreparedSeries; one
private fit object (_Fit) per call prepares it once, runs the S_n
objective, records the finite evaluations and builds the report.  A run
that diverges (non-finite S_n) scores +inf and is not recorded among the
evaluations, so no search can prefer it to a finite one, on any scale of
the series.  A tuner that finds no finite S_n raises TuningError.
Only _relax_pair's S_n tolerance has the series' units: on the series
times 2^e, short of overflow, tune_filter0 and fit_garch report K times
2^e, S_n times 4^e and otherwise the same bits; tune_filter1 and
tune_filter2 may differ in the last bits, through it and the polish's
geomspace grid for K.

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

from .errors import TuningError
from .filters import (
    ExtendedParams,
    GarchParams,
    PreparedSeries,
    _GarchSystem,
    _a_cap,
    run,
)

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
# Score of a point outside the (a_1, a_2) box in _relax_pair's Nelder-Mead,
# grown with the distance to the box.  Finite on purpose: an infinite score
# there stops the simplex early.  Diverged runs score inf.
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
    boundary.  +inf is accepted as the worst value (a diverged run); when
    every point scores it, the value returned is inf.  NaN and -inf raise
    TuningError.
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
        if math.isnan(value) or value == -math.inf:
            raise TuningError(f"objective returned {value!r} at x={x!r}")
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


class _Fit:
    """One tuner call: its series, prepared once unless it already is (its
    own check is the floor of 50 observations), its S_n objective, the
    finite evaluations so far and the report built from them."""

    __slots__ = ("series", "evaluations")

    def __init__(self, xs: Sequence[float] | PreparedSeries):
        series = xs if isinstance(xs, PreparedSeries) else PreparedSeries(xs)
        if series.n < _MIN_SAMPLES:
            raise ValueError(
                f"tuning needs at least {_MIN_SAMPLES} observations, got {series.n}"
            )
        self.series, self.evaluations = series, []

    def sn(self, params) -> float:
        """S_n of one run; a diverged run scores inf and is not recorded."""
        # run through this module's binding, so that a wrapper installed
        # on tuning.run sees every evaluation
        with np.errstate(over="ignore", invalid="ignore"):
            value = run(self.series, params).s_n
        if not math.isfinite(value):
            return math.inf
        self.evaluations.append((params, value))
        return value

    def report(self, best: tuple, trace: Sequence[TuningStage]) -> TuningReport:
        """The report of this fit, with best = (best_params, best_sn)."""
        return TuningReport(*best, tuple(self.evaluations), tuple(trace))


def _theta_stage(k: int, sn_of: Callable) -> tuple[float, float]:
    """theta of the pure order-k filter (a = K = 0); raises when all diverge."""
    theta, sn = minimize_scalar(
        lambda theta: sn_of(ExtendedParams(k, theta)), _THETA_LO, _THETA_HI, _THETA_TOL
    )
    if sn == math.inf:
        raise TuningError(f"no theta in [{_THETA_LO}, {_THETA_HI}] gives a finite S_n")
    return theta, sn


def _polish(
    point: list[float],
    bounds: Sequence[tuple[float, float]],
    make_params: Callable,
    sn_of: Callable,
    best_sn: float,
) -> tuple[list[float], float]:
    """Cyclic coordinate descent with shrinking relative brackets.

    Each pass minimizes one coordinate on [x-h, x+h] to within h/1000,
    with h a fraction of |x| (a coordinate where that is 0 stays put);
    moves are accepted only when they improve the incumbent.
    """
    point = list(point)
    for frac in _POLISH_FRACS:
        for j in range(len(point)):
            x = point[j]
            half = frac * abs(x)
            tol = half * 1e-3
            if not tol > 0.0:
                continue
            blo, bhi = bounds[j]
            lo, hi = max(x - half, blo), min(x + half, bhi)
            if not lo < hi:
                continue

            def objective(val: float, j=j) -> float:
                trial = list(point)
                trial[j] = val
                return sn_of(make_params(trial))

            cand, cand_sn = minimize_scalar(objective, lo, hi, tol)
            if cand_sn < best_sn:
                point[j] = cand
                best_sn = cand_sn
    return point, best_sn


def tune_filter0(xs: Sequence[float] | PreparedSeries, k: int = 0) -> TuningReport:
    """Tune the pure order-k filter: one-dimensional search over theta."""
    fit = _Fit(xs)
    theta, sn = _theta_stage(k, fit.sn)
    trace = [TuningStage(name="theta", params={"theta": theta}, sn=sn)]
    return fit.report((ExtendedParams(k, theta), sn), trace)


def tune_filter1(xs: Sequence[float] | PreparedSeries) -> TuningReport:
    """Tune the one-coefficient level filter (k=0) in stages theta, K, a1, polish."""
    return _tune_level(xs, 0)


def tune_filter2(xs: Sequence[float] | PreparedSeries) -> TuningReport:
    """Tune the two-coefficient level filter (k=1) in stages theta, K, a1_a2, polish."""
    return _tune_level(xs, 1)


def _tune_level(xs: Sequence[float] | PreparedSeries, k: int) -> TuningReport:
    """Staged search for the level filter of order k, with k+1 coefficients a.

    Stages: theta with a = K = 0; K = sample mean of the observations;
    the relaxation coefficients a with theta and K fixed, up to run()'s
    cap, filters._a_cap (k=0: the scalar minimizer; k=1: _relax_pair);
    coordinate-descent polish of (theta, K, a), with K unbounded above.
    The stage of a is named after its coefficients ("a1", "a1_a2").
    """
    fit = _Fit(xs)
    n, sn_of = fit.series.n, fit.sn
    a_hi = _a_cap(n)
    names = ["theta", "K", *(f"a{m}" for m in range(1, k + 2))]

    def make_params(pt: Sequence[float]) -> ExtendedParams:
        return ExtendedParams(k=k, theta=pt[0], a_coeffs=tuple(pt[2:]), k_level=pt[1])

    theta, sn = _theta_stage(k, sn_of)
    trace = [TuningStage(name="theta", params={"theta": theta}, sn=sn)]

    k_level = float(np.mean(fit.series.x))
    sn = sn_of(make_params([theta, k_level, *(0.0,) * (k + 1)]))
    trace.append(TuningStage(name="K", params={"theta": theta, "K": k_level}, sn=sn))

    def relaxed(a: tuple[float, ...]) -> float:
        return sn_of(make_params([theta, k_level, *a]))

    if k == 0:
        a1, sn = minimize_scalar(lambda a1: relaxed((a1,)), 0.0, a_hi, _THETA_TOL)
        a = (a1,)
    else:
        a, sn = _relax_pair(relaxed, n, a_hi, sn)
    point = [theta, k_level, *a]
    trace.append(
        TuningStage(name="_".join(names[2:]), params=dict(zip(names, point)), sn=sn)
    )

    bounds = [(_THETA_LO, _THETA_HI), (0.0, math.inf), *[(0.0, a_hi)] * (k + 1)]
    point, sn = _polish(point, bounds, make_params, sn_of, sn)
    trace.append(TuningStage(name="polish", params=dict(zip(names, point)), sn=sn))
    return fit.report((make_params(point), sn), trace)


def _relax_pair(
    objective: Callable, n: int, a_hi: float, sn_zero: float
) -> tuple[tuple[float, float], float]:
    """(a_1, a_2) on a 6x6 positive grid, refined by Nelder-Mead in the box.

    sn_zero is the S_n of the all-zero pair, already evaluated.  Both
    coefficients stay positive, or both zero: the stable choices.
    """
    best, best_sn = (0.0, 0.0), sn_zero
    axis = [float(v) for v in np.geomspace(n * 1e-4, a_hi, 6)]
    for pair in itertools.product(axis, repeat=2):
        value = objective(pair)
        if value < best_sn:
            best_sn, best = value, pair
    if best == (0.0, 0.0):
        return best, best_sn

    def nm_objective(ab) -> float:
        nonlocal best, best_sn
        pair = (float(ab[0]), float(ab[1]))
        if not all(0.0 < a <= a_hi for a in pair):
            excess = sum(max(0.0, -a) + max(0.0, a - a_hi) for a in pair)
            return _PENALTY * (1.0 + excess)
        value = objective(pair)
        if value < best_sn:
            best_sn, best = value, pair
        return value

    # imported where it runs: scipy.optimize (with scipy.linalg and
    # scipy.sparse) is most of the time `import voltrack` would take
    from scipy import optimize

    optimize.minimize(
        nm_objective,
        np.asarray(best),
        method="Nelder-Mead",
        options={"xatol": 1e-8 * max(1.0, a_hi), "fatol": 1e-14, "maxiter": 400},
    )
    return best, best_sn


def _solve_psd(mat: list[list[float]], vec: list[float]) -> list[float] | None:
    """Solve a small symmetric positive semi-definite system, in place.

    Gaussian elimination without pivoting, which overwrites mat and vec.
    Returns None when a pivot falls to rounding level against its
    diagonal entry, that is when the system is singular.
    """
    m = len(vec)
    diag = [mat[i][i] for i in range(m)]
    for i in range(m):
        row, piv = mat[i], mat[i][i]
        if not piv > _SINGULAR * diag[i]:
            return None
        for r in range(i + 1, m):
            below = mat[r]
            f = below[i] / piv
            for c in range(i, m):
                below[c] -= f * row[c]
            vec[r] -= f * vec[i]
    y = [0.0] * m
    for i in range(m - 1, -1, -1):
        row = mat[i]
        y[i] = (vec[i] - sum(row[c] * y[c] for c in range(i + 1, m))) / row[i]
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
def _faces(d: int) -> tuple[tuple[tuple[int, ...], int | None, tuple[int, ...]], ...]:
    """Faces of {t >= 0, sum(t[1:]) <= cap} in R^d, in the order tried.

    A face is (free entries, pivot, fixed entries): the fixed entries
    are zero, and with a pivot the cap binds.  Faces with t[0] (the
    constant K) free come first, larger faces before smaller, and cap
    faces last, which puts the usual optima of GARCH fits among the
    first few.
    """
    subsets = [c for m in range(d, 0, -1) for c in itertools.combinations(range(d), m)]
    subsets.sort(key=lambda c: c[0] != 0)
    faces = [(c, None) for c in subsets] + [(c, c[-1]) for c in subsets if c[-1] > 0]
    return tuple(
        (c, pivot, tuple(i for i in range(d) if i not in c)) for c, pivot in faces
    )


def _gradient_entry(row: list[float], t: list[float], r: float) -> tuple[float, float]:
    """Entry i of the gradient G t - r, from row i of G and r = r[i], and
    its rounding allowance in the Karush-Kuhn-Tucker test."""
    terms = [g * v for g, v in zip(row, t)]
    return sum(terms) - r, _KKT_TOL * (abs(r) + sum(abs(v) for v in terms))


def _meets_kkt(gram, rhs, t, pivot: int | None, fixed: tuple[int, ...]) -> bool:
    """The Karush-Kuhn-Tucker sign conditions of a face's minimum t.

    Multipliers: lam for the cap (zero where it does not bind),
    grad[i] + lam for a fixed a_i and grad[0] for a fixed K.  Only these
    entries are tested, so only their gradient entries are formed.
    """
    lam = 0.0
    if pivot is not None:
        grad, tol = _gradient_entry(gram[pivot], t, rhs[pivot])
        lam = -grad
        if not lam >= -tol:
            return False
    for i in fixed:
        grad, tol = _gradient_entry(gram[i], t, rhs[i])
        if not grad + lam * (i > 0) >= -tol:
            return False
    return True


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
    best, best_f = [0.0] * len(rhs), 0.0
    for free, pivot, fixed in _faces(len(rhs)):
        t = _face_minimum(gram, rhs, cap, free, pivot)
        if t is None or min(t) < 0.0 or (pivot is None and sum(t[1:]) > cap):
            continue
        if _meets_kkt(gram, rhs, t, pivot, fixed):
            return t
        f = sum(
            ti * (_gradient_entry(row, t, r)[0] - r) for ti, row, r in zip(t, gram, rhs)
        )
        if f < best_f:
            best, best_f = t, f
    return best


def _solve_k_a(
    system: _GarchSystem, g: tuple[float, ...]
) -> tuple[float, tuple[float, ...]]:
    """Least-squares K and a_1..a_q of GARCH(len(g), q) for fixed g.

    The estimates are affine in (K, a) (filters._GarchSystem.basis), so
    S_n is a quadratic in them, minimized exactly over K, a >= 0 and
    sum(a) <= 1 - sum(g).  Where the cap binds, a is then shrunk by a few
    ulps so that sum(g) + sum(a) stays strictly below one.
    """
    basis = system.basis(g)
    cols = basis[:, 1:]
    # Overflow leaves a singular system, solved as K = a = 0; its run scores inf.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (cols.T @ cols).tolist()
        rhs = (cols.T @ (system.x - basis[:, 0])).tolist()
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


def fit_garch(xs: Sequence[float] | PreparedSeries, p: int = 1, q: int = 1) -> TuningReport:
    """Fit GARCH(p, q) by least squares, with K and a profiled out.

    For fixed recursive coefficients g the estimates are affine in the
    constant K and the coefficients a_1..a_q, so their best values solve
    a small constrained least-squares problem exactly (K, a >= 0 and
    sum(g) + sum(a) < 1; see _solve_k_a), and only g is searched
    (variable projection, Golub and Pereyra 1973).  The search scans a
    grid (11 points per coefficient on [0, 1), pairs with g1 + g2 < 1)
    and refines the 8 best grid points with a finite S_n by Nelder-Mead;
    each refinement is one trace stage.  Every value the search sees is a
    full run, and only these feasible runs enter the report, so best_sn is
    run(best_params).s_n.
    """
    if p not in (1, 2) or q not in (1, 2):
        raise ValueError(f"p and q must be 1 or 2, got p={p}, q={q}")
    fit = _Fit(xs)
    system = _GarchSystem(fit.series.x, p, q)
    seen: dict = {}

    def profiled(g: tuple[float, ...]) -> tuple[GarchParams, float]:
        if g not in seen:
            k_const, a = _solve_k_a(system, g)
            params = GarchParams(p=p, q=q, k_const=k_const, g_coeffs=g, a_coeffs=a)
            seen[g] = (params, fit.sn(params))
        return seen[g]

    # Axis points whose sum rounds to one are pulled just inside.
    grid = [
        _below_one(0.0, g)
        for g in itertools.product(_G_AXIS, repeat=p)
        if sum(g) <= 1.0
    ]
    grid_sn = [profiled(g)[1] for g in grid]
    # Only finite grid points start a refinement: Nelder-Mead cannot
    # order a simplex of infinities.
    finite = [i for i, sn in enumerate(grid_sn) if sn < math.inf]
    if not finite:
        # g = 0 (no feedback) is on the grid: the series itself overflows
        raise TuningError("no GARCH parameter set on the grid gives a finite S_n")
    # sorted is stable: equal values keep the grid order.
    starts = sorted(finite, key=grid_sn.__getitem__)[:_GARCH_STARTS]

    def clipped(vec) -> tuple[float, ...]:
        # Negative coefficients are scored at zero, so optima on that
        # boundary are reached exactly.
        return tuple(max(0.0, float(v)) for v in vec)

    def objective(vec) -> float:
        g = clipped(vec)
        # Nelder-Mead orders infinities correctly; a finite penalty could
        # undercut the S_n of a series on a large scale.
        return profiled(g)[1] if sum(g) < 1.0 else math.inf

    from scipy import optimize  # see _relax_pair

    names = ["K", *(f"g{j}" for j in range(1, p + 1))]
    names += [f"a{m}" for m in range(1, q + 1)]
    trace = []
    for idx, i in enumerate(starts, start=1):
        res = optimize.minimize(
            objective,
            np.asarray(grid[i]),
            method="Nelder-Mead",
            # S_n carries the series' units squared and g has none: stop on g alone
            options={"xatol": 1e-6, "fatol": math.inf, "maxiter": 600, "maxfev": 2000},
        )
        # res.x is the best vertex, already evaluated: a lookup, not a run
        params, value = profiled(clipped(res.x))
        coeffs = (params.k_const, *params.g_coeffs, *params.a_coeffs)
        trace.append(
            TuningStage(name=f"start{idx}", params=dict(zip(names, coeffs)), sn=value)
        )
    # min returns the first of equal minima: ties go to the earliest evaluation.
    return fit.report(min(fit.evaluations, key=lambda e: e[1]), trace)
