"""One-step state machines for the volatility estimators.

Three recursions share the one-step-prediction discipline (the residual
at step i compares the observation X_i with the estimate built from
observations strictly before i):

* the pure order-k tracking filter: level plus k pseudo-derivatives,
  each corrected by its scheduled gain times the innovation;
* its extension with damping coefficients a_1..a_{k+1} that relax the
  state toward a long-run level K (the k=0 and k=1 instances are the
  one- and two-derivative level filters used in the benchmarks);
* the classical GARCH(p, q) recursion fitted by least squares.

Each family's recursion is written once, as a private fold that only
folds: it appends the one-step predictions to a list and returns the
final state.  run() folds it over the whole series and step_* over one
observation, so run equals the composition of steps by construction;
residuals and S_n are formed from the predictions afterwards, in run()
as one array subtraction and in step_* as x minus the prediction.  The
k=0 level filter and GARCH(1,1) share one fold, the first-order
recursion v' = c_v v + c + g x, so the twin holds bit for bit by
construction.  The k=1 fold is the general order-k update unrolled into
two locals, in the same operation order, at under a third of the
general loop's cost per step.  The GARCH estimates are affine in K and
a for fixed g; _garch_basis returns the responses that the fit combines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import DataError
from .gains import MAX_ORDER, GainSchedule, gain_schedule

__all__ = [
    "FilterState",
    "ExtendedParams",
    "GarchParams",
    "TrackResult",
    "init_state",
    "step_adaptive",
    "step_garch",
    "run",
]

# Sum(g) + Sum(a) may sit exactly on 1: the level filter with a_1 = 0 maps
# onto a GARCH(1,1) whose coefficients add up to one.  Strict stationarity
# is enforced where parameters are fitted, not here.
_GARCH_SUM_SLACK = 1e-12


@dataclass(frozen=True)
class FilterState:
    """Current level estimate plus k pseudo-derivative estimates."""

    v_hat: float
    derivatives: tuple[float, ...] = ()
    step_index: int = 0

    def __post_init__(self):
        if not math.isfinite(self.v_hat):
            raise ValueError("v_hat must be finite")
        if not all(math.isfinite(d) for d in self.derivatives):
            raise ValueError("derivative estimates must be finite")


@dataclass(frozen=True)
class ExtendedParams:
    """Parameters of the order-k filter with relaxation toward a level K.

    a_coeffs has length k+1: a_coeffs[0] damps the highest
    pseudo-derivative, the trailing entry couples the level estimate to
    k_level (for k=0 the single entry plays both roles).  All-zero
    a_coeffs with k_level=0 give the pure tracking filter.  The
    coefficients must keep x^(k+1) + a_1 x^k + ... + a_{k+1} free of
    roots in the open right half-plane.
    """

    k: int
    theta: float
    a_coeffs: tuple[float, ...]
    k_level: float = 0.0

    def __post_init__(self):
        if self.k < 0 or self.k > MAX_ORDER:
            raise ValueError(f"smoothness order k must be in 0..{MAX_ORDER}")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")
        if len(self.a_coeffs) != self.k + 1:
            raise ValueError(
                f"a_coeffs must have length k+1={self.k + 1}, got {len(self.a_coeffs)}"
            )
        if not all(math.isfinite(a) and a >= 0.0 for a in self.a_coeffs):
            raise ValueError("a_coeffs must be finite and non-negative")
        if not math.isfinite(self.k_level):
            raise ValueError("k_level must be finite")
        # For k <= 1 non-negative coefficients never give a root in the right
        # half-plane: x + a1 has root -a1, and x^2 + a1 x + a2 has roots with
        # real part -a1/2 or real roots in [-a1, 0].  Only k >= 2 is checked.
        if self.k >= 2 and any(a > 0.0 for a in self.a_coeffs):
            roots = np.roots([1.0, *self.a_coeffs])
            scale = max(1.0, float(np.max(np.abs(roots))))
            if np.any(roots.real > 1e-9 * scale):
                raise ValueError(
                    "a_coeffs must give a relaxation polynomial with no roots "
                    "in the right half-plane"
                )


@dataclass(frozen=True)
class GarchParams:
    """GARCH(p, q) recursion coefficients."""

    p: int
    q: int
    k_const: float
    g_coeffs: tuple[float, ...]
    a_coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be at least 1")
        if len(self.g_coeffs) != self.p:
            raise ValueError(f"g_coeffs must have length p={self.p}")
        if len(self.a_coeffs) != self.q:
            raise ValueError(f"a_coeffs must have length q={self.q}")
        if not (math.isfinite(self.k_const) and self.k_const >= 0.0):
            raise ValueError("k_const must be finite and non-negative")
        coeffs = self.g_coeffs + self.a_coeffs
        if not all(math.isfinite(c) and c >= 0.0 for c in coeffs):
            raise ValueError("g_coeffs and a_coeffs must be finite and non-negative")
        if sum(coeffs) > 1.0 + _GARCH_SUM_SLACK:
            raise ValueError("sum of g_coeffs and a_coeffs must not exceed 1")


@dataclass(frozen=True)
class TrackResult:
    """Estimate path, one-step residuals and their mean square."""

    estimates: np.ndarray
    residuals: np.ndarray
    s_n: float


def init_state(k: int, warmup: Sequence[float]) -> FilterState:
    """Start at the mean of the warmup values with zero derivatives.

    The caller chooses how long a prefix to average; run() supplies
    min(20, ceil(n/20)) leading observations.
    """
    if k < 0 or k > MAX_ORDER:
        raise ValueError(f"smoothness order k must be in 0..{MAX_ORDER}")
    w = np.asarray(warmup, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("warmup must be a non-empty sequence")
    if not np.all(np.isfinite(w)):
        raise DataError("warmup contains non-finite observations")
    return FilterState(v_hat=float(np.mean(w)), derivatives=(0.0,) * k, step_index=0)


def _fold_first_order(v, xs, c_v, c, g, estimates) -> float:
    """The recursion v' = c_v v + c + g x, folded over xs from v: appends
    the prediction of each x to estimates and returns the final v."""
    for x in xs:
        estimates.append(v)
        v = c_v * v + c + g * x
    return v


def _fold_adaptive(z, xs, schedule, ext, estimates) -> list[float]:
    """The order-k recursion, folded over xs from z = [v_hat, d_1, ..., d_k]:
    appends the prediction of each x to estimates and returns the final z."""
    g, n = schedule.step_gains.tolist(), schedule.n
    a, level, k = ext.a_coeffs, ext.k_level, len(z) - 1
    if k == 0:
        # (1 - a_1/n) v + (a_1/n) K + g_0 (x - v) in coefficient form: the
        # GARCH(1,1) twin has K' = (a_1/n) K, g_1 = c_v and a_1 = g_0.
        c_v = 1.0 - a[0] / n - g[0]
        return [_fold_first_order(z[0], xs, c_v, a[0] / n * level, g[0], estimates)]
    damp = 1.0 - a[0] / n
    a_over_n = [c / n for c in a]
    level_term = a_over_n[k] * level
    if k == 1:
        # The general update below with k=1, unrolled into locals: the same
        # operations in the same order, without the per-step lists.
        g0, g1, a2n = g[0], g[1], a_over_n[1]
        v, d = z
        for x in xs:
            estimates.append(v)
            res = x - v
            v, d = v + d / n + g0 * res, d * damp - a2n * v + level_term + g1 * res
        return [v, d]
    for x in xs:
        estimates.append(z[0])
        res = x - z[0]
        new = [0.0] * (k + 1)
        new[0] = z[0] + z[1] / n + g[0] * res
        for j in range(1, k):
            new[j] = z[j] + z[j + 1] / n + g[j] * res
        t = z[k] * damp
        for ell in range(2, k + 2):
            t = t - a_over_n[ell - 1] * z[k + 1 - ell]
        t = t + level_term
        t = t + g[k] * res
        new[k] = t
        z = new
    return z


def _fold_garch(est, obs, xs, params: GarchParams) -> None:
    """The GARCH(p, q) recursion, folded over xs.

    est holds at least p prior estimates and obs at least q-1 prior
    observations, most recent last.  Each step appends its new estimate
    to est, so the prediction of xs[i] is the estimate that stood last in
    est before that step, and for q > 1 its observation to obs.  GARCH(1,1)
    is the first-order fold: (g_1 v + K) + a_1 x rounds like (K + g_1 v) + a_1 x.
    """
    p, q = params.p, params.q
    k_const, g, a = params.k_const, params.g_coeffs, params.a_coeffs
    if p == q == 1:
        v = est.pop()
        est.append(_fold_first_order(v, xs, g[0], k_const, a[0], est))
        return
    for x in xs:
        acc = k_const
        for j in range(1, p + 1):
            acc = acc + g[j - 1] * est[-j]
        acc = acc + a[0] * x
        for m in range(2, q + 1):
            acc = acc + a[m - 1] * obs[1 - m]
        est.append(acc)
        obs.append(x)


def _garch_basis(x_arr: np.ndarray, g_coeffs: Sequence[float], q: int) -> np.ndarray:
    """Responses of run()'s GARCH recursion for fixed g, one per column.

    Column 0 is the estimate path with K = a = 0 (only the pre-sample
    values x[0] drive it), column 1 the response to K = 1 and column
    1 + m the response to a_m = 1, with run()'s pre-sample padding.  The
    estimates of GARCH(p, q) with these g are column 0 + K column 1 +
    sum_m a_m column (1 + m), up to rounding.
    """
    n, p = int(x_arr.size), len(g_coeffs)
    x0 = float(x_arr[0])
    # Lower band storage of the unit lower-triangular system
    # v[i] - sum_j g_j v[i-j] = (inputs of step i-1), with v[0] = x[0].
    band = np.zeros((p + 1, n))
    band[0] = 1.0
    inputs = np.zeros((n, 2 + q))
    inputs[0, 0] = x0
    for j, g in enumerate(g_coeffs, start=1):
        band[j, : n - j] = -g
        # pre-sample estimates v[i-j] = x[0] for i < j
        inputs[1:j, 0] += g * x0
    inputs[1:, 1] = 1.0
    padded = np.concatenate((np.full(q - 1, x0), x_arr[:-1]))
    for m in range(1, q + 1):
        inputs[1:, 1 + m] = padded[q - m : q - m + n - 1]
    # forward substitution; the unit diagonal cannot make it fail
    basis, _ = lapack.dtbtrs(band, inputs, uplo="L")
    return basis


def step_adaptive(
    state: FilterState,
    x: float,
    schedule: GainSchedule,
    ext: ExtendedParams,
) -> tuple[FilterState, float]:
    """Advance the order-k filter by one observation.

    Returns the new state and the innovation residual x - v_hat formed
    before the update.  Operating-range checks on a_coeffs and k_level
    relative to n are left to run() so degenerate algebraic identities
    stay expressible at the single-step level.
    """
    k = ext.k
    if schedule.k != k or len(state.derivatives) != k:
        raise ValueError("smoothness order mismatch between state, schedule and params")
    if schedule.theta != ext.theta:
        raise ValueError(f"schedule theta {schedule.theta} differs from theta {ext.theta}")
    if not math.isfinite(x):
        raise DataError(f"non-finite observation {x!r}")
    z = _fold_adaptive([state.v_hat, *state.derivatives], (x,), schedule, ext, [])
    return FilterState(z[0], tuple(z[1:]), state.step_index + 1), x - state.v_hat


def step_garch(
    history: tuple[Sequence[float], Sequence[float]],
    x: float,
    params: GarchParams,
) -> tuple[float, float]:
    """Advance the GARCH(p, q) recursion by one observation.

    history is a pair (estimates, observations), most recent last, with
    at least p prior estimates and q-1 prior observations.  The new
    estimate is K + sum_j g_j v[i-j] + a_1 x + sum_{m>=2} a_m X[i+1-m],
    summed in that order; the residual compares x with the latest
    estimate.
    """
    est_hist, obs_hist = history
    p, q = params.p, params.q
    if len(est_hist) < p:
        raise ValueError(f"need at least p={p} prior estimates, got {len(est_hist)}")
    if len(obs_hist) < q - 1:
        raise ValueError(
            f"need at least q-1={q - 1} prior observations, got {len(obs_hist)}"
        )
    if not math.isfinite(x):
        raise DataError(f"non-finite observation {x!r}")
    est = list(est_hist[len(est_hist) - p :])
    _fold_garch(est, list(obs_hist[len(obs_hist) - (q - 1) :]), (x,), params)
    return est[-1], x - est_hist[-1]


def _warmup_count(n: int) -> int:
    return min(20, -(-n // 20))


def run(xs: Sequence[float], params: ExtendedParams | GarchParams) -> TrackResult:
    """Fold the matching recursion over a full observation series.

    estimates[i] is the one-step prediction of xs[i]; residuals[i] is
    xs[i] - estimates[i]; s_n is the mean squared residual.
    """
    x_arr = np.asarray(xs, dtype=float)
    if x_arr.ndim != 1 or x_arr.size < 2:
        raise ValueError("need a one-dimensional series of at least 2 observations")
    bad = np.flatnonzero(~np.isfinite(x_arr))
    if bad.size:
        raise DataError(f"non-finite observation at index {int(bad[0])}")
    n = int(x_arr.size)
    obs = x_arr.tolist()
    if isinstance(params, GarchParams):
        # The first observation seeds the recursion; missing pre-sample
        # estimates and observations are padded with it.
        p, v0 = params.p, obs[0]
        est = [v0] * p
        _fold_garch(est, [v0] * (params.q - 1), obs, params)
        preds = est[p - 1 : p - 1 + n]
    elif isinstance(params, ExtendedParams):
        if max(params.a_coeffs) >= n / 10:
            raise ValueError("a_coeffs must stay well below n (max coefficient < n/10)")
        if abs(params.k_level) >= n:
            raise ValueError("k_level magnitude must stay below n")
        schedule = gain_schedule(params.k, params.theta, n)
        state, preds = init_state(params.k, x_arr[: _warmup_count(n)]), []
        _fold_adaptive([state.v_hat, *state.derivatives], obs, schedule, params, preds)
    else:
        raise ValueError(f"unsupported parameter type {type(params).__name__}")
    estimates = np.array(preds)
    residuals = x_arr - estimates
    s_n = float(np.mean(np.square(residuals)))
    return TrackResult(estimates=estimates, residuals=residuals, s_n=s_n)
