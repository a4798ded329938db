"""Parameter search tests: scalar minimizer, staged tuners, GARCH fitting.

Oracles: scalar problems with known minima, constant series where the
objective vanishes identically, series scaled until S_n exceeds any
fixed penalty or overflows, a noiseless self-consistent GARCH
recursion that a correct fit drives to zero, structural identities
between stages that share their search path bit for bit, nesting of
GARCH(1,1) in GARCH(2,2), random feasible alternatives that the
exact inner (K, a) solve of the GARCH fit must never beat, and the same
fit on the series times a power of two, which must differ only by that
factor in K and its square in S_n.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from voltrack import (
    ExtendedParams,
    GarchParams,
    TuningError,
    fit_garch,
    minimize_scalar,
    run,
    tune_filter0,
    tune_filter1,
    tune_filter2,
)
from voltrack import FuncSpec, Scenario, generate_path, tuning
from voltrack.filters import PreparedSeries, _GarchSystem
from voltrack.tuning import _capped_nnls, _solve_k_a


def noise_series(size: int = 300, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(0.09, 0.04, size=size))


class TestMinimizeScalar:
    def test_quadratic(self):
        x, f = minimize_scalar(lambda x: (x - 3.0) ** 2, 0.5, 10.0, 1e-6)
        assert abs(x - 3.0) < 1e-5
        assert f < 1e-10

    def test_vee_shape(self):
        x, f = minimize_scalar(lambda x: abs(x - 2.0) + 1.0, 0.5, 8.0, 1e-6)
        assert abs(x - 2.0) < 1e-5
        assert abs(f - 1.0) < 1e-5

    def test_monotone_returns_boundary(self):
        x, f = minimize_scalar(lambda x: x, 1.0, 5.0, 1e-6)
        assert x == 1.0 and f == 1.0
        x, f = minimize_scalar(lambda x: -x, 1.0, 5.0, 1e-6)
        assert x == 5.0 and f == -5.0

    def test_zero_lower_bound_is_evaluated(self):
        x, f = minimize_scalar(lambda x: x, 0.0, 5.0, 1e-6)
        assert x == 0.0 and f == 0.0

    def test_negative_interval_uses_linear_grid(self):
        x, _ = minimize_scalar(lambda x: (x + 1.0) ** 2, -2.0, 2.0, 1e-6)
        assert abs(x + 1.0) < 1e-5

    def test_returns_best_point_evaluated(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.cos(x)

        x, val = minimize_scalar(f, 1.0, 6.0, 1e-6)
        assert val == min(math.cos(s) for s in seen)
        assert abs(x - math.pi) < 1e-5

    def test_non_finite_objective_rejected(self):
        with pytest.raises(TuningError):
            minimize_scalar(lambda x: math.nan, 1.0, 5.0, 1e-6)

    def test_minus_infinity_rejected(self):
        with pytest.raises(TuningError):
            minimize_scalar(lambda x: -math.inf, 1.0, 5.0, 1e-6)

    def test_infinity_is_the_worst_value(self):
        # a diverged region scores inf and the finite minimum still wins
        x, f = minimize_scalar(
            lambda x: math.inf if x < 2.0 else (x - 3.0) ** 2, 0.5, 10.0, 1e-6
        )
        assert abs(x - 3.0) < 1e-5
        assert f < 1e-10

    def test_all_infinite_returns_infinity(self):
        _, f = minimize_scalar(lambda x: math.inf, 1.0, 5.0, 1e-6)
        assert f == math.inf

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x, 5.0, 1.0, 1e-6)
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x, 1.0, 5.0, 0.0)


class TestTuneFilter0:
    def test_constant_series_reaches_zero(self):
        report = tune_filter0(np.full(64, 0.125))
        assert report.best_sn == 0.0
        assert all(value == 0.0 for _, value in report.evaluations)
        assert [s.name for s in report.trace] == ["theta"]

    def test_noise_only_prefers_heavy_smoothing(self):
        # With no signal to track the best theta sits at the low end.
        report = tune_filter0(noise_series())
        assert report.best_params.theta <= 0.05

    def test_best_is_minimum_of_evaluations(self):
        report = tune_filter0(noise_series())
        assert report.best_sn == min(value for _, value in report.evaluations)
        sn_high = run(noise_series(), ExtendedParams(k=0, theta=10.0, a_coeffs=(0.0,), k_level=0.0)).s_n
        assert report.best_sn <= sn_high

    def test_higher_order_variant(self):
        report = tune_filter0(noise_series(), k=1)
        assert report.best_params.k == 1
        assert report.best_params.a_coeffs == (0.0, 0.0)

    def test_rejects_short_or_multidim_series(self):
        with pytest.raises(ValueError):
            tune_filter0(np.full(10, 0.1))
        with pytest.raises(ValueError):
            tune_filter0(np.full((60, 2), 0.1))


class TestTuneFilter1:
    def test_trace_names(self):
        report = tune_filter1(noise_series())
        assert [s.name for s in report.trace] == ["theta", "K", "a1", "polish"]

    def test_stage_monotonicity(self):
        report = tune_filter1(noise_series())
        sn = [s.sn for s in report.trace]
        # K has no effect while a1 = 0, so stage two repeats stage one
        assert sn[1] == sn[0]
        assert sn[2] <= sn[1]
        assert sn[3] <= sn[2]
        assert report.best_sn == sn[3]

    def test_constant_series(self):
        report = tune_filter1(np.full(64, 0.125))
        assert report.best_sn == 0.0
        assert report.trace[1].params["K"] == 0.125

    def test_best_matches_polish_stage(self):
        report = tune_filter1(noise_series())
        final = report.trace[-1].params
        assert report.best_params.theta == final["theta"]
        assert report.best_params.k_level == final["K"]
        assert report.best_params.a_coeffs == (final["a1"],)
        assert report.best_sn == min(value for _, value in report.evaluations)

    def test_relaxation_stays_inside_operating_range(self):
        report = tune_filter1(noise_series())
        n = 300
        assert 0.0 <= report.best_params.a_coeffs[0] < n / 10.0


class TestTuneFilter2:
    def test_trace_names_and_order(self):
        report = tune_filter2(noise_series())
        assert [s.name for s in report.trace] == ["theta", "K", "a1_a2", "polish"]
        assert report.best_params.k == 1

    def test_first_stage_equals_pure_filter_tuning(self):
        xs = noise_series()
        staged = tune_filter2(xs)
        pure = tune_filter0(xs, k=1)
        assert staged.trace[0].params["theta"] == pure.best_params.theta
        assert staged.trace[0].sn == pure.best_sn

    def test_stage_monotonicity(self):
        report = tune_filter2(noise_series())
        sn = [s.sn for s in report.trace]
        assert sn[1] == sn[0]
        assert sn[2] <= sn[1]
        assert sn[3] <= sn[2]
        assert report.best_sn == sn[3]
        assert report.best_sn == min(value for _, value in report.evaluations)

    def test_relaxation_pair_is_stable_choice(self):
        report = tune_filter2(noise_series())
        a1, a2 = report.best_params.a_coeffs
        assert (a1 > 0.0 and a2 > 0.0) or (a1 == 0.0 and a2 == 0.0)


def large_scale_series() -> np.ndarray:
    """Three volatility levels times squared Gaussian noise, S_n near 1e14."""
    rng = np.random.default_rng(3)
    return 1e8 * np.repeat([0.05, 0.2, 0.1], 100) * rng.standard_normal(300) ** 2


class TestDivergedRuns:
    """A diverged run scores inf, whatever the scale of the series."""

    def test_best_is_a_finite_run_on_a_large_scale(self):
        xs = large_scale_series()
        report = tune_filter0(xs)
        assert math.isfinite(report.best_sn)
        assert report.best_sn == run(xs, report.best_params).s_n

    def test_level_stage_tunes_a_mean_of_n_or_more(self):
        # the sample mean, about 1.2e7, is the level stage's K; n is 300
        xs = large_scale_series()
        reports = [tuner(xs) for tuner in (tune_filter1, tune_filter2)]
        for report in reports:
            assert report.trace[1].params["K"] >= xs.size
            assert report.best_sn == run(xs, report.best_params).s_n
        # the one-coefficient filter makes the same runs as on a scale below n
        small = tune_filter1(xs * 2.0**-30)
        assert len(reports[0].evaluations) == len(small.evaluations) == 440

    def test_overflowing_series_raises(self):
        xs = 1e192 * large_scale_series()
        for tuner in (tune_filter0, tune_filter1, tune_filter2, fit_garch):
            with pytest.raises(TuningError):
                tuner(xs)


@st.composite
def scaled_series(draw):
    """A non-negative series of 50 to 150 points on a scale from 1e-6 to 1e8."""
    size = draw(st.integers(50, 150))
    scale = 10.0 ** draw(st.floats(-6.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return scale * rng.standard_normal(size) ** 2


@settings(max_examples=15)
@given(scaled_series(), st.sampled_from((tune_filter0, tune_filter1, tune_filter2)))
def test_level_tuners_report_a_real_run(xs, tuner):
    report = tuner(xs)
    assert math.isfinite(report.best_sn)
    assert report.best_sn == min(value for _, value in report.evaluations)
    assert report.best_sn == run(xs, report.best_params).s_n
    sn = [stage.sn for stage in report.trace]
    assert all(b <= a for a, b in zip(sn, sn[1:]))


class TestFitGarch:
    def test_noiseless_recursion_fits_to_zero(self):
        # xs[i+1] = K + (g+a) xs[i] is reproduced exactly by any GARCH(1,1)
        # with constant K and g1 + a1 = 0.8, so a correct fit drives the
        # mean squared residual to numerical zero.
        series = [0.3]
        for _ in range(199):
            series.append(0.02 + 0.8 * series[-1])
        report = fit_garch(np.asarray(series))
        assert report.best_sn < 1e-10
        got = report.best_params
        assert abs(got.k_const - 0.02) < 0.05
        assert abs(got.g_coeffs[0] + got.a_coeffs[0] - 0.8) < 0.05

    def test_deterministic(self):
        xs = noise_series()
        a = fit_garch(xs)
        b = fit_garch(xs)
        assert a.best_params == b.best_params
        assert a.best_sn == b.best_sn
        assert a.trace == b.trace

    def test_trace_covers_all_starts(self):
        report = fit_garch(noise_series())
        assert [s.name for s in report.trace] == [f"start{i}" for i in range(1, 9)]
        assert sorted(report.trace[0].params) == ["K", "a1", "g1"]

    def test_best_bounds_every_start(self):
        report = fit_garch(noise_series())
        assert all(report.best_sn <= stage.sn for stage in report.trace)
        assert report.best_sn == min(value for _, value in report.evaluations)

    def test_best_is_feasible(self):
        report = fit_garch(noise_series())
        par = report.best_params
        assert par.k_const >= 0.0
        assert all(c >= 0.0 for c in par.g_coeffs + par.a_coeffs)
        assert sum(par.g_coeffs) + sum(par.a_coeffs) < 1.0

    def test_garch22_is_no_worse_than_the_garch11_it_contains(self):
        # GARCH(1,1) is GARCH(2,2) with g2 = a2 = 0, so the larger fit must
        # reach at least the smaller one's loss.
        xs = noise_series()
        assert fit_garch(xs, 2, 2).best_sn <= fit_garch(xs, 1, 1).best_sn * (1 + 1e-12)

    def test_large_scale_series_keeps_the_search_feasible(self):
        # S_n near 1e14 is far above any fixed penalty: points with
        # g1 + g2 >= 1 must still rank below every feasible one.
        xs = large_scale_series()
        report = fit_garch(xs)
        par = report.best_params
        assert sum(par.g_coeffs) + sum(par.a_coeffs) < 1.0
        assert report.best_sn == run(xs, par).s_n

    def test_refinements_start_only_from_finite_grid_points(self):
        # A constant series near 5e199: every grid point overflows except
        # the two with g1 + g2 just below one, where the fit is exact.  A
        # refinement started from an all-inf simplex would warn and record
        # an inf stage.
        xs = np.full(149, math.log(2.0) ** 2 / 1e-200)
        report = fit_garch(xs, 2, 2)
        assert report.best_sn == 0.0
        assert [s.name for s in report.trace] == ["start1", "start2"]
        assert all(stage.sn == 0.0 for stage in report.trace)

    def test_rejects_unsupported_orders(self):
        with pytest.raises(ValueError):
            fit_garch(noise_series(), p=3, q=1)
        with pytest.raises(ValueError):
            fit_garch(noise_series(), p=1, q=0)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            fit_garch(np.full(20, 0.1))


@st.composite
def garch_profile_cases(draw):
    """(xs, p, q, g): a non-negative series and recursive coefficients with sum(g) < 1.

    The series is squared Gaussian noise around a level that drifts
    sinusoidally, the shape of the squared returns the fits see.
    """
    p = draw(st.sampled_from((1, 2)))
    q = draw(st.sampled_from((1, 2)))
    size = draw(st.integers(50, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    swing = draw(st.floats(0.0, 0.9))
    level = 0.1 * (1.0 + swing * np.sin(np.linspace(0.0, 2.0 * math.pi, size)))
    xs = level * rng.standard_normal(size) ** 2
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p))
    total = draw(st.floats(0.0, 0.999))
    g = tuple(total * w / max(sum(weights), 1e-300) for w in weights)
    return xs, p, q, g


def feasible_k_a(data, q, cap, center=None):
    """A random (K, a) with K, a >= 0 and sum(a) < cap, near `center` if given."""
    if center is None:
        k_const = data.draw(st.floats(0.0, 1.0))
        shares = data.draw(st.lists(st.floats(0.0, 1.0), min_size=q, max_size=q))
        scale = data.draw(st.floats(0.0, 0.999)) * cap / max(sum(shares), 1.0)
        return k_const, tuple(scale * s for s in shares)
    steps = data.draw(st.lists(st.floats(-1e-3, 1e-3), min_size=q + 1, max_size=q + 1))
    k_const = max(0.0, center[0] + steps[0] * (abs(center[0]) + 1e-3))
    a = [max(0.0, c + h * (c + cap)) for c, h in zip(center[1], steps[1:])]
    if sum(a) >= cap:
        a = [c * 0.999 * cap / sum(a) for c in a]
    return k_const, tuple(a)


class TestGarchProfile:
    """The inner solve of fit_garch: exact least-squares K and a for fixed g."""

    @settings(max_examples=30)
    @given(garch_profile_cases(), st.data())
    def test_solved_k_a_beats_random_feasible_choices(self, case, data):
        xs, p, q, g = case
        k_const, a = _solve_k_a(_GarchSystem(xs, p, q), g)
        assert sum(g) + sum(a) < 1.0
        result = run(xs, GarchParams(p=p, q=q, k_const=k_const, g_coeffs=g, a_coeffs=a))
        # non-negative estimates: the zero floor of the recursion is inert
        assert np.all(result.estimates >= 0.0)
        cap = 1.0 - sum(g)
        # draws from the whole feasible set and from around the solution
        for center in (None, None, None, (k_const, a), (k_const, a), (k_const, a)):
            k_other, a_other = feasible_k_a(data, q, cap, center)
            other = GarchParams(p=p, q=q, k_const=k_other, g_coeffs=g, a_coeffs=a_other)
            assert result.s_n <= run(xs, other).s_n * (1 + 1e-12)


# The profile solve as first written, kept as the reference for the leaner
# one in voltrack.tuning: the same operations in the same order, so the
# same bits, signed zeros included.
REFERENCE_SINGULAR = 1e-12
REFERENCE_KKT_TOL = 1e-10


def reference_solve_psd(mat: list[list[float]], vec: list[float]) -> list[float] | None:
    """tuning._solve_psd as first written: it copies its inputs."""
    m = len(vec)
    mat = [row[:] for row in mat]
    vec = list(vec)
    diag = [mat[i][i] for i in range(m)]
    for i in range(m):
        piv = mat[i][i]
        if not piv > REFERENCE_SINGULAR * diag[i]:
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


def reference_face_minimum(
    gram: list[list[float]],
    rhs: list[float],
    cap: float,
    free: tuple[int, ...],
    pivot: int | None,
) -> list[float] | None:
    """tuning._face_minimum as first written."""
    t = [0.0] * len(rhs)
    if pivot is None:
        mat = [[gram[i][j] for j in free] for i in free]
        y = reference_solve_psd(mat, [rhs[i] for i in free])
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
    y = reference_solve_psd(mat, vec)
    if y is None:
        return None
    for j, v in zip(others, y):
        t[j] = v
    t[pivot] = cap - sum(wj * v for wj, v in zip(w, y))
    return t


def reference_faces(d: int) -> tuple[tuple[tuple[int, ...], int | None], ...]:
    """tuning._faces as first written: (free entries, pivot) pairs."""
    subsets = [c for m in range(d, 0, -1) for c in itertools.combinations(range(d), m)]
    subsets.sort(key=lambda c: c[0] != 0)
    capped = [(c, c[-1]) for c in subsets if c[-1] > 0]
    return tuple([(c, None) for c in subsets] + capped)


def reference_capped_nnls(
    gram: list[list[float]], rhs: list[float], cap: float
) -> list[float]:
    """tuning._capped_nnls as first written: the full gradient and
    every tolerance for each feasible face."""
    d = len(rhs)
    best, best_f = [0.0] * d, 0.0
    for free, pivot in reference_faces(d):
        t = reference_face_minimum(gram, rhs, cap, free, pivot)
        if t is None or min(t) < 0.0 or (pivot is None and sum(t[1:]) > cap):
            continue
        terms = [[gram[i][j] * t[j] for j in range(d)] for i in range(d)]
        grad = [sum(row) - r for row, r in zip(terms, rhs)]
        tol = [
            REFERENCE_KKT_TOL * (abs(r) + sum(abs(v) for v in row))
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


@st.composite
def profile_problems(draw):
    """(gram, rhs, cap) of a capped non-negative least-squares problem.

    Either random columns, some duplicated or zero so that faces go
    singular, with right-hand sides that may be all negative or hold
    signed zeros; or the Gram and right-hand side the GARCH fit forms
    from its basis on a random series, for p, q in {1, 2}.
    """
    cap = draw(st.just(0.0) | st.floats(0.0, 1.0))
    if draw(st.booleans()):
        xs, p, q, g = draw(garch_profile_cases())
        basis = _GarchSystem(xs, p, q).basis(g)
        cols = basis[:, 1:]
        return (cols.T @ cols).tolist(), (cols.T @ (xs - basis[:, 0])).tolist(), cap
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.standard_normal((draw(st.integers(d, 8)), d))
    for j in range(d):
        shape = draw(st.sampled_from(("random", "random", "zero", "duplicate")))
        if shape == "zero":
            cols[:, j] = 0.0
        elif shape == "duplicate":
            cols[:, j] = cols[:, draw(st.integers(0, d - 1))]
    rhs = cols.T @ rng.standard_normal(cols.shape[0])
    if draw(st.booleans()):
        rhs = -np.abs(rhs)
    rhs = [draw(st.sampled_from((r, r, 0.0, -0.0))) for r in rhs.tolist()]
    return (cols.T @ cols).tolist(), rhs, cap


class TestProfileSolveReference:
    """The capped solve of fit_garch keeps the reference's bits."""

    @settings(max_examples=300)
    @given(profile_problems())
    # negatively coupled columns and a signed-zero right-hand side: the
    # back substitution's sum must start from 0 to keep the sign of t[0]
    @example(([[2.0, -1.0], [-1.0, 2.0]], [-0.0, 0.0], 1.0))
    def test_matches_the_reference_bit_for_bit(self, problem):
        gram, rhs, cap = problem
        kept = repr((gram, rhs))
        got = _capped_nnls(gram, rhs, cap)
        assert repr((gram, rhs)) == kept
        want = reference_capped_nnls(gram, rhs, cap)
        assert np.array(got).tobytes() == np.array(want).tobytes()


README_SINUSOID = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("sinusoid", (0.1, 0.05, 1.0, 0.0)),
)


class TestEveryRunThroughTheModuleBinding:
    """A tuner calls run through tuning.run, once per evaluation.

    perfbench's tracer counts filter runs by wrapping that binding, so a
    run made through any other name would drop out of its counts.
    """

    @pytest.mark.parametrize(
        "tuner, k",
        [(tune_filter1, 0), (tune_filter2, 1), (lambda xs: fit_garch(xs, 2, 2), None)],
        ids=["filter1", "filter2", "garch22"],
    )
    def test_every_evaluation_calls_the_binding(self, monkeypatch, tuner, k):
        xs = generate_path(README_SINUSOID, n=125, seed=1).xs
        seen = []
        original = tuning.run

        def counted(series, params):
            result = original(series, params)
            seen.append((params, result.s_n))
            return result

        monkeypatch.setattr(tuning, "run", counted)
        report = tuner(xs)
        monkeypatch.undo()
        finite = [(params, value) for params, value in seen if math.isfinite(value)]
        assert finite == list(report.evaluations)
        # Diverged runs, which the report leaves out, count too.  On this
        # series they are the theta grid points whose pure run overflows:
        # two for k = 0, none for k = 1; no GARCH run diverges here.
        diverged = 0
        if k is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                diverged = sum(
                    not math.isfinite(run(xs, ExtendedParams(k, theta)).s_n)
                    for theta in np.geomspace(1e-2, 1e3, 25)
                )
        assert len(seen) - len(finite) == diverged == (2 if k == 0 else 0)


class TestPreparedSeriesInput:
    """Every tuner takes a PreparedSeries as it is and reports on it what
    it reports on the plain series, bit for bit."""

    @pytest.mark.parametrize(
        "tuner",
        [
            tune_filter0,
            lambda xs: tune_filter0(xs, k=2),
            tune_filter1,
            tune_filter2,
            lambda xs: fit_garch(xs, 1, 1),
            lambda xs: fit_garch(xs, 2, 2),
        ],
        ids=["filter0", "filter0-k2", "filter1", "filter2", "garch11", "garch22"],
    )
    def test_prepared_series_gives_the_plain_report(self, tuner):
        xs = generate_path(README_SINUSOID, n=125, seed=1).xs
        plain, prepared = tuner(xs), tuner(PreparedSeries(xs))
        assert prepared.best_params == plain.best_params
        assert prepared.best_sn.hex() == plain.best_sn.hex()
        # repr tells every float apart, -0.0 from 0.0 included
        assert repr(prepared.evaluations) == repr(plain.evaluations)
        assert repr(prepared.trace) == repr(plain.trace)

    def test_short_prepared_series_is_refused(self):
        with pytest.raises(ValueError, match="at least 50 observations, got 10"):
            tune_filter0(PreparedSeries(np.full(10, 0.1)))


def scaled_level(par: ExtendedParams | GarchParams, c: float):
    """par with its constant K times c."""
    if isinstance(par, GarchParams):
        return dataclasses.replace(par, k_const=par.k_const * c)
    return dataclasses.replace(par, k_level=par.k_level * c)


class TestUnits:
    """Scaling the series by a power of two scales K by it and every S_n by
    its square, and changes no other bit of a fit: not theta, g or a, and
    not the runs the search makes."""

    @pytest.mark.parametrize(
        "tuner",
        [
            tune_filter0,
            lambda xs: tune_filter0(xs, k=1),
            lambda xs: tune_filter0(xs, k=2),
            lambda xs: fit_garch(xs, 1, 1),
            lambda xs: fit_garch(xs, 2, 2),
        ],
        ids=["filter0", "adaptive-k1", "adaptive-k2", "garch11", "garch22"],
    )
    @settings(max_examples=4)
    @given(seed=st.integers(1, 3), e=st.integers(-40, 40))
    # an absolute S_n tolerance in the GARCH search moves its run count here
    @example(seed=1, e=20)
    def test_a_fit_does_not_depend_on_units(self, tuner, seed, e):
        xs = generate_path(README_SINUSOID, n=125, seed=seed).xs
        c = math.ldexp(1.0, e)
        base = tuner(xs)
        # Away from overflow: the k=0 theta grid point 383 lies past the
        # stability bound 2 n^(2/3) = 50, and its run reaches S_n near
        # 1e283 on these paths, so it overflows from e = 39 on.
        assume(all(v * c * c < math.inf for _, v in base.evaluations))
        scaled = tuner(xs * c)
        assert scaled.best_params == scaled_level(base.best_params, c)
        assert scaled.best_sn.hex() == (base.best_sn * c * c).hex()
        assert [v for _, v in scaled.evaluations] == [
            v * c * c for _, v in base.evaluations
        ]
