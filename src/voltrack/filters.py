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

Each family's recursion is written once, as a private fold that takes an
array of observations and returns the one-step predictions and the final
state: _fold_adaptive for the order-k filters, which computes its own
gains from the params and n, and _fold_garch for GARCH.  run() folds it
over the whole series, step_* over one observation and
step_spectral_radius over observation 0 from each unit state, so run
equals the composition of steps, and the stability radius belongs to the
recursion run() folds, by construction.  Residuals and S_n are formed
from the predictions afterwards, in run() as one array subtraction and
in step_* as x minus the prediction.  The k=0 level filter and
GARCH(1,1) share one first-order recursion, v' = c_v v + c + g x
(_first_order), so the twin holds bit for bit by construction.  Where
c = 0 it runs in SciPy's compiled linear-filter kernel, on arrays from
end to end, for run() and the steps alike, and a property test holds the
kernel equal to the Python loop bit for bit.  The GARCH estimates are
affine in K and a for fixed g; _GarchSystem.basis returns the responses
that the fit combines, from a band system whose series-only parts are
built once per series.

The Python folds define the recursions.  Where a C compiler is found,
the folds run compiled instead, from _folds.c: the first-order recursion
for every c that the kernel does not take, the general order-k update
for k >= 1 and the general GARCH(p, q) loop except (1, 1).  Each does
the Python loop's + - * / on doubles in the same order, so the bits are
the same: the build uses -O2 -ffp-contract=off, never -ffast-math,
-Ofast or -march=native, and refuses a compiler with excess precision
(FLT_EVAL_METHOD != 0).  The first fold that needs it compiles the
source with sysconfig's CC into __pycache__, named by a hash of the
source, the command and the extension suffix, and later processes load
that file; importing the package does neither (_compiled_folds).
Without a compiler or Python.h, with a cache that cannot be written, or
when the build fails, the Python folds run, with the same bits and only
slower: the k=1 update and GARCH(2,2) are then unrolled into locals, at
under a third and under half the general loops' cost per step.  No
option selects the route.

run() first prepares its series (PreparedSeries): the shape and finite
checks, n and the warm-up start, the part of a run that does not depend
on the parameters, all computed when the series is prepared, and the
list of floats the Python folds iterate, made once on first use and
only where they run.  It accepts a series already prepared, so a tuner,
which runs one series hundreds to thousands of times, prepares it once
per fit.  run() caps the a_j below n/10, a bound without units, in one
place, _a_cap, which the level tuners search; K is a constant input of
the recursion, unbounded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import sysconfig
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from .errors import DataError
from .gains import MAX_ORDER, gain_schedule

__all__ = [
    "FilterState",
    "ExtendedParams",
    "GarchParams",
    "TrackResult",
    "PreparedSeries",
    "init_state",
    "step_adaptive",
    "step_garch",
    "run",
    "step_spectral_radius",
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
    k_level (for k=0 the single entry plays both roles).  The default,
    (), stands for k+1 zeros, so ExtendedParams(k, theta) is the pure
    tracking filter.  The coefficients must keep x^(k+1) + a_1 x^k + ...
    + a_{k+1} free of roots in the open right half-plane.
    """

    k: int
    theta: float
    a_coeffs: tuple[float, ...] = ()
    k_level: float = 0.0

    def __post_init__(self):
        if self.k < 0 or self.k > MAX_ORDER:
            raise ValueError(f"smoothness order k must be in 0..{MAX_ORDER}")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")
        if len(self.a_coeffs) == 0:
            object.__setattr__(self, "a_coeffs", (0.0,) * (self.k + 1))
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

    The caller chooses how long a prefix to average.  run() takes this
    start from PreparedSeries.start, which computes it here when the
    series is prepared, from the min(20, ceil(n/20)) leading observations.
    """
    if k < 0 or k > MAX_ORDER:
        raise ValueError(f"smoothness order k must be in 0..{MAX_ORDER}")
    w = np.asarray(warmup, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("warmup must be a non-empty sequence")
    if not np.all(np.isfinite(w)):
        raise DataError("warmup contains non-finite observations")
    return FilterState(v_hat=float(np.mean(w)), derivatives=(0.0,) * k)


def _fold_first_order(v, xs, c_v, c, g, estimates) -> float:
    """The recursion v' = c_v v + c + g x, folded over xs from v: appends
    the prediction of each x to estimates and returns the final v."""
    for x in xs:
        estimates.append(v)
        v = c_v * v + c + g * x
    return v


@functools.cache
def _linear_filter():
    """SciPy's compiled linear-filter kernel, the routine behind
    scipy.signal.lfilter, called as (b, a, x, axis, zi) -> (y, zf).

    The extension is loaded from its file because importing scipy.signal
    loads scipy.stats as well: about 0.4 s and 20 MB, against 0.3 ms here.
    Cached, so the file is loaded once per process.  If this SciPy keeps
    the kernel elsewhere, the public lfilter runs the same routine.
    """
    folder = Path(scipy.__file__).parent / "signal"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_sigtools{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(
                "scipy.signal._sigtools", str(path)
            )
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader)
            )
            loader.exec_module(module)
            return module._linear_filter
    from scipy.signal import lfilter

    return lfilter


_FOLDS_SOURCE = Path(__file__).with_name("_folds.c")
_FOLDS_CACHE = Path(__file__).with_name("__pycache__")
# -ffp-contract=off keeps every a * b + c two roundings, as in Python.
# Never -ffast-math or -Ofast (they link crtfastmath, which flushes
# subnormals to zero for the whole process) nor -march=native.
_FOLDS_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _folds_command() -> list[str]:
    """The C compiler this Python was built with and the flags that build
    _folds.c; the output file and the source follow them."""
    import shlex

    compiler = shlex.split(sysconfig.get_config_var("CC") or "")
    return [*compiler, *_FOLDS_FLAGS, f"-I{sysconfig.get_paths()['include']}"]


@functools.cache
def _compiled_folds():
    """The folds compiled from _folds.c, or None where they cannot be.

    The first call builds the extension into __pycache__, named by a hash
    of the source, the command and the extension suffix, through a
    temporary file and os.replace, and later calls and processes load
    that file.  Without a compiler or Python.h, with a cache that cannot
    be written, or when the build fails or hangs, it returns None and the
    folds run in Python, with the same bits.  Cached, so a process tries
    once.
    """
    command = _folds_command()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        source = _FOLDS_SOURCE.read_bytes()
        key = hashlib.sha256(source + repr((command, suffix)).encode()).hexdigest()[:16]
        target = _FOLDS_CACHE / f"_folds-{key}{suffix}"
        if not target.is_file():
            _FOLDS_CACHE.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=suffix, dir=_FOLDS_CACHE)
            os.close(fd)
            try:
                subprocess.run(
                    [*command, "-o", tmp, str(_FOLDS_SOURCE)],
                    stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=300,
                )
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        loader = importlib.machinery.ExtensionFileLoader("voltrack._folds", str(target))
        spec = importlib.util.spec_from_loader(loader.name, loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except (OSError, subprocess.SubprocessError, ImportError):
        return None
    sys.modules[loader.name] = module
    return module


def _array(xs) -> np.ndarray:
    """The observations xs (an array or a PreparedSeries) as a contiguous
    float array, the form the compiled routes read."""
    return xs.x if isinstance(xs, PreparedSeries) else np.ascontiguousarray(xs, dtype=float)


def _floats(xs) -> list[float]:
    """The observations xs (an array or a PreparedSeries) as the Python
    floats a Python fold iterates.  A PreparedSeries keeps its list, so the
    runs of one prepared series convert it once."""
    return xs.x_list if isinstance(xs, PreparedSeries) else xs.tolist()


def _first_order(v0: float, xs, c_v: float, c: float, g: float) -> tuple[np.ndarray, float]:
    """The recursion v' = c_v v + c + g x from v0: the prediction of each
    observation in xs (an array or a PreparedSeries), and the final v.

    For c = +0.0 the compiled kernel runs y[i] = 0 x[i] + z and
    z' = g x[i] + c_v y[i]: the fold's two products and one sum, so the
    same doubles up to the sign of zero.  The fold's (c_v v + 0.0) never
    gives -0.0, so neither does any of its values after v0: adding +0.0
    to the kernel's makes them equal.  Every other c, -0.0 included, runs
    the fold itself, compiled where it can be.
    """
    if c == 0.0 and math.copysign(1.0, c) > 0.0:
        y, zf = _linear_filter()(
            np.array([0.0, g]), np.array([1.0, -c_v]), _array(xs), -1, np.array([v0])
        )
        y += 0.0
        y[0] = v0
        return y, float(zf[0]) + 0.0
    folds = _compiled_folds()
    if folds is not None:
        x_arr = _array(xs)
        estimates = np.empty(x_arr.size)
        return estimates, folds.first_order(x_arr, estimates, v0, c_v, c, g)
    estimates = []
    v = _fold_first_order(v0, _floats(xs), c_v, c, g, estimates)
    return np.array(estimates), v


def _level_first_order(ext, n) -> tuple[float, float, float]:
    """(c_v, c, g) of the k=0 level filter as a first-order recursion for
    a run of n: (1 - a_1/n) v + (a_1/n) K + g_0 (x - v) in coefficient
    form.  The GARCH(1,1) twin has K' = (a_1/n) K, g_1 = c_v and a_1 = g_0."""
    g0, a1_over_n = float(gain_schedule(0, ext.theta, n)[0]), ext.a_coeffs[0] / n
    return 1.0 - a1_over_n - g0, a1_over_n * ext.k_level, g0


def _fold_adaptive(z, xs, ext, n) -> tuple[np.ndarray, list[float]]:
    """The order-k recursion of a run of n, gains included, folded over xs
    (an array or a PreparedSeries) from z = [v_hat, d_1, ..., d_k]: the
    prediction of each x, and the final z.  k = 0 is the first-order
    recursion; every k >= 1 runs the general update, compiled where it can
    be, which in Python is unrolled into two locals for k = 1."""
    k = len(z) - 1
    if k == 0:
        estimates, v = _first_order(z[0], xs, *_level_first_order(ext, n))
        return estimates, [v]
    g = gain_schedule(k, ext.theta, n)
    a, level = ext.a_coeffs, ext.k_level
    damp = 1.0 - a[0] / n
    a_over_n = [c / n for c in a]
    level_term = a_over_n[k] * level
    folds = _compiled_folds()
    if folds is not None:
        x_arr = _array(xs)
        estimates, z_arr = np.empty(x_arr.size), np.array(z, dtype=float)
        folds.adaptive(z_arr, x_arr, estimates, g, np.array(a_over_n), damp, level_term, n)
        return estimates, z_arr.tolist()
    g = g.tolist()
    estimates = []
    if k == 1:
        # The general update below with k=1, unrolled into locals: the same
        # operations in the same order, without the per-step lists.
        g0, g1, a2n = g[0], g[1], a_over_n[1]
        v, d = z
        for x in _floats(xs):
            estimates.append(v)
            res = x - v
            v, d = v + d / n + g0 * res, d * damp - a2n * v + level_term + g1 * res
        return np.array(estimates), [v, d]
    for x in _floats(xs):
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
    return np.array(estimates), z


def _fold_garch(est, obs, xs, params: GarchParams) -> tuple[np.ndarray, float]:
    """The GARCH(p, q) recursion, folded over xs (an array or a
    PreparedSeries): the prediction of each x, and the final estimate.

    est holds the p prior estimates and obs the q-1 prior observations,
    most recent last; the prediction of x[i] is the latest estimate
    before step i.  GARCH(1,1) is the first-order recursion:
    (g_1 v + K) + a_1 x rounds like (K + g_1 v) + a_1 x.  Every other
    order runs the general loop, compiled where it can be.  In Python,
    GARCH(2,2) is that loop unrolled into three locals, in the same
    operation order, at under half its cost per step.
    """
    p, q = params.p, params.q
    k_const, g, a = params.k_const, params.g_coeffs, params.a_coeffs
    if p == q == 1:
        return _first_order(est[-1], xs, g[0], k_const, a[0])
    folds = _compiled_folds()
    if folds is not None:
        # hist: the p prior estimates, then one estimate per observation
        x_arr = _array(xs)
        hist = np.empty(p + x_arr.size)
        hist[:p] = est
        prior = np.array(obs, dtype=float)
        last = folds.garch(hist, prior, x_arr, np.array(g), np.array(a), k_const)
        return hist[p - 1 : -1], last
    if p == q == 2:
        # The general loop below with p = q = 2, unrolled into locals: the
        # same operations in the same order, without the per-step lists.
        (g1, g2), (a1, a2) = g, a
        e2, e1 = est
        (o1,) = obs
        estimates = []
        for x in _floats(xs):
            estimates.append(e1)
            e2, e1, o1 = e1, k_const + g1 * e1 + g2 * e2 + a1 * x + a2 * o1, x
        return np.array(estimates), e1
    x_list = _floats(xs)
    est, obs, n = list(est), list(obs), len(x_list)
    for x in x_list:
        acc = k_const
        for j in range(1, p + 1):
            acc = acc + g[j - 1] * est[-j]
        acc = acc + a[0] * x
        for m in range(2, q + 1):
            acc = acc + a[m - 1] * obs[1 - m]
        est.append(acc)
        obs.append(x)
    return np.array(est[p - 1 : p - 1 + n]), est[-1]


class _GarchSystem:
    """The unit lower-triangular band system behind the GARCH(p, q) basis
    of one series.

    Lower band storage of v[i] - sum_j g_j v[i-j] = (inputs of step i-1),
    with v[0] = x[0].  The band's unit diagonal, the unit column and
    run()'s padded observation columns depend on the series alone, so
    they are built once; basis() fills only the band's g rows and the
    pre-sample column.  Both operands are stored column-major, the layout
    dtbtrs reads, so neither is transposed per call.
    """

    __slots__ = ("x", "x0", "band", "inputs", "_dtbtrs")

    def __init__(self, x_arr: np.ndarray, p: int, q: int):
        # Only the GARCH fit builds one, so only it loads scipy.linalg.
        from scipy.linalg import lapack

        n = int(x_arr.size)
        self.x, self.x0, self._dtbtrs = x_arr, float(x_arr[0]), lapack.dtbtrs
        self.band = np.zeros((p + 1, n), order="F")
        self.band[0] = 1.0
        self.inputs = np.zeros((n, 2 + q), order="F")
        self.inputs[0, 0] = self.x0
        self.inputs[1:, 1] = 1.0
        padded = np.concatenate((np.full(q - 1, self.x0), x_arr[:-1]))
        for m in range(1, q + 1):
            self.inputs[1:, 1 + m] = padded[q - m : q - m + n - 1]

    def basis(self, g_coeffs: Sequence[float]) -> np.ndarray:
        """Responses of run()'s GARCH recursion for fixed g, one per column.

        Column 0 is the estimate path with K = a = 0 (only the pre-sample
        values x[0] drive it), column 1 the response to K = 1 and column
        1 + m the response to a_m = 1, with run()'s pre-sample padding.
        The estimates of GARCH(p, q) with these g are column 0 + K column
        1 + sum_m a_m column (1 + m), up to rounding.
        """
        band, inputs, x0 = self.band, self.inputs, self.x0
        n = band.shape[1]
        inputs[1 : len(g_coeffs), 0] = 0.0
        for j, g in enumerate(g_coeffs, start=1):
            band[j, : n - j] = -g
            # pre-sample estimates v[i-j] = x[0] for i < j
            inputs[1:j, 0] += g * x0
        # forward substitution; the unit diagonal cannot make it fail
        return self._dtbtrs(band, inputs, uplo="L")[0]


def step_adaptive(
    state: FilterState,
    x: float,
    ext: ExtendedParams,
    n: int,
) -> tuple[FilterState, float]:
    """Advance the order-k filter of a run of n by one observation.

    Returns the new state and the innovation residual x - v_hat formed
    before the update, with run()'s gains for n.  The cap on a_coeffs
    relative to n is left to run() so degenerate algebraic identities stay
    expressible at the single-step level.
    """
    if len(state.derivatives) != ext.k:
        raise ValueError("smoothness order mismatch between state and params")
    if not math.isfinite(x):
        raise DataError(f"non-finite observation {x!r}")
    _, z = _fold_adaptive(
        [state.v_hat, *state.derivatives], np.array([x], dtype=float), ext, n
    )
    return FilterState(z[0], tuple(z[1:])), x - state.v_hat


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
    _, v = _fold_garch(
        est_hist[len(est_hist) - p :],
        obs_hist[len(obs_hist) - (q - 1) :],
        np.array([x], dtype=float),
        params,
    )
    return v, x - est_hist[-1]


def _warmup_count(n: int) -> int:
    return min(20, -(-n // 20))


class PreparedSeries:
    """An observation series checked once, for any number of run() calls.

    Preparing holds everything in run() that does not depend on the
    parameters: the shape and finite checks, n and the warm-up start of
    the order-k filters, init_state's level for the first
    min(20, ceil(n/20)) observations.  run() prepares a plain series
    itself, so a caller that runs one series many times, as the tuners
    do, prepares it once and passes the result.  x is a read-only float
    copy of the observations; len() is n.
    """

    __slots__ = ("x", "n", "start", "_x_list")

    def __init__(self, xs: Sequence[float]):
        x_arr = np.array(xs, dtype=float)
        if x_arr.ndim != 1 or x_arr.size < 2:
            raise ValueError("need a one-dimensional series of at least 2 observations")
        bad = np.flatnonzero(~np.isfinite(x_arr))
        if bad.size:
            raise DataError(f"non-finite observation at index {int(bad[0])}")
        x_arr.setflags(write=False)
        self.x, self.n = x_arr, int(x_arr.size)
        self.start = init_state(0, x_arr[: _warmup_count(self.n)]).v_hat
        self._x_list = None

    @property
    def x_list(self) -> list[float]:
        """x.tolist(), the Python floats the Python folds iterate, made on
        first use: the kernel and the compiled folds read x alone."""
        if self._x_list is None:
            self._x_list = self.x.tolist()
        return self._x_list

    def __len__(self) -> int:
        return self.n


def run(
    xs: Sequence[float] | PreparedSeries, params: ExtendedParams | GarchParams
) -> TrackResult:
    """Fold the matching recursion over a full observation series.

    estimates[i] is the one-step prediction of xs[i]; residuals[i] is
    xs[i] - estimates[i]; s_n is the mean squared residual.  xs is
    prepared first (PreparedSeries) unless it already is; the order-k
    filters start from the prepared warm-up start, the mean of the first
    min(20, ceil(n/20)) observations, with zero derivatives, and must
    keep every a_j at or below _a_cap(n).
    """
    series = xs if isinstance(xs, PreparedSeries) else PreparedSeries(xs)
    x_arr, n = series.x, series.n
    if isinstance(params, GarchParams):
        # The first observation seeds the recursion; missing pre-sample
        # estimates and observations are padded with it.
        v0 = float(x_arr[0])
        estimates, _ = _fold_garch([v0] * params.p, [v0] * (params.q - 1), series, params)
    elif isinstance(params, ExtendedParams):
        if max(params.a_coeffs) > _a_cap(n):
            raise ValueError("a_coeffs must stay well below n (max coefficient < n/10)")
        estimates, _ = _fold_adaptive([series.start] + [0.0] * params.k, series, params, n)
    else:
        raise ValueError(f"unsupported parameter type {type(params).__name__}")
    residuals = x_arr - estimates
    # np.mean's own sum and division, without its wrapper
    s_n = float(np.add.reduce(np.square(residuals))) / n
    return TrackResult(estimates=estimates, residuals=residuals, s_n=s_n)


def _step_matrix(ext: ExtendedParams, n: int) -> np.ndarray:
    """The order-k filter's one-step matrix for a run of n: column j is
    _fold_adaptive's step from the unit state e_j on observation 0.  K
    enters the step only as a constant input, so the folds leave it at 0."""
    linear, zero = ExtendedParams(ext.k, ext.theta, ext.a_coeffs), np.zeros(1)
    columns = [_fold_adaptive(e, zero, linear, n)[1] for e in np.eye(ext.k + 1).tolist()]
    return np.array(columns).T


def step_spectral_radius(ext: ExtendedParams, n: int) -> float:
    """Spectral radius of the order-k filter's one-step matrix for a run of n.

    A step maps the state z = [v, d_1, ..., d_k] to (I + N/n - g e_0') z,
    less a_1/n d_k + ... + a_{k+1}/n v in its last entry, plus the constant
    and observation inputs; N is the upper shift matrix and g the
    gain_schedule gains.  The recursion is stable for a run of n only when
    this radius is below 1.  Unlike stability_report, which certifies the
    continuous-time limit for every theta, this bounds theta: for k = 0
    the condition is |1 - a_1/n - g_0| < 1, theta < 2 n^(2/3) when a = 0.
    """
    return float(np.max(np.abs(np.linalg.eigvals(_step_matrix(ext, n)))))


def _a_cap(n: int) -> float:
    """The largest a_j that run() accepts for a series of n: one ulp below
    n/10, so max(a) < n/10 on every finite value."""
    return math.nextafter(n / 10.0, 0.0)
