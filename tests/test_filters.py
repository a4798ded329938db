"""Filter recursion tests: parameter validation, single steps, full runs.

Oracles: hand-computed single-step arithmetic, independent re-rolled
recursions compared bit for bit, exact fixed points on constant input,
externally recomputed mean squared residuals, run-versus-step
properties over randomly drawn parameters, and runs on the series and K
times a power of two, which scale by that factor exactly.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from voltrack import (
    DataError,
    ExtendedParams,
    FilterState,
    GarchParams,
    gain_schedule,
    init_state,
    run,
    step_adaptive,
    step_garch,
)
from voltrack import filters
from voltrack.filters import (
    PreparedSeries,
    _first_order,
    _fold_first_order,
    _GarchSystem,
    _level_first_order,
    _warmup_count,
)


def stable_a(k: int) -> tuple[float, ...]:
    """Coefficients of (x + 1)^(k+1) past the leading term: always Hurwitz."""
    return tuple(float(math.comb(k + 1, j + 1)) for j in range(k + 1))


def noisy_series(size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(0.09, 0.03, size=size))


class TestFilterState:
    def test_defaults(self):
        st = FilterState(v_hat=0.1)
        assert st.derivatives == ()

    def test_rejects_non_finite_v_hat(self):
        with pytest.raises(ValueError):
            FilterState(v_hat=math.nan)

    def test_rejects_non_finite_derivative(self):
        with pytest.raises(ValueError):
            FilterState(v_hat=0.1, derivatives=(0.0, math.inf))


class TestExtendedParams:
    def test_valid_construction(self):
        ext = ExtendedParams(k=2, theta=0.5, a_coeffs=(3.0, 3.0, 1.0), k_level=0.09)
        assert ext.k == 2

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ExtendedParams(k=9, theta=1.0, a_coeffs=(0.0,) * 10, k_level=0.0)
        with pytest.raises(ValueError):
            ExtendedParams(k=-1, theta=1.0, a_coeffs=(), k_level=0.0)

    def test_rejects_bad_theta(self):
        for theta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ExtendedParams(k=0, theta=theta, a_coeffs=(0.0,), k_level=0.0)

    def test_rejects_wrong_a_length(self):
        with pytest.raises(ValueError):
            ExtendedParams(k=1, theta=1.0, a_coeffs=(1.0,), k_level=0.0)

    def test_rejects_negative_a(self):
        with pytest.raises(ValueError):
            ExtendedParams(k=0, theta=1.0, a_coeffs=(-0.5,), k_level=0.0)

    def test_rejects_non_finite_level(self):
        with pytest.raises(ValueError):
            ExtendedParams(k=0, theta=1.0, a_coeffs=(0.0,), k_level=math.nan)

    def test_rejects_unstable_relaxation(self):
        # Routh: x^3 + x^2 + x + 10 has roots in the right half-plane.
        with pytest.raises(ValueError):
            ExtendedParams(k=2, theta=1.0, a_coeffs=(1.0, 1.0, 10.0), k_level=0.0)

    @settings(max_examples=50)
    @given(
        st.integers(0, 1),
        st.lists(
            st.one_of(st.just(0.0), st.floats(-12.0, 6.0).map(lambda e: 10.0**e)),
            min_size=2,
            max_size=2,
        ),
    )
    def test_orders_below_two_need_no_root_check(self, k, draws):
        # ExtendedParams skips np.roots for k <= 1; the criterion it would
        # apply accepts every non-negative coefficient vector there.
        a_coeffs = tuple(draws[: k + 1])
        roots = np.roots([1.0, *a_coeffs])
        scale = max(1.0, float(np.max(np.abs(roots))))
        assert not np.any(roots.real > 1e-9 * scale)
        assert ExtendedParams(k=k, theta=1.0, a_coeffs=a_coeffs).a_coeffs == a_coeffs

    def test_accepts_all_zero_a(self):
        ext = ExtendedParams(k=3, theta=1.0, a_coeffs=(0.0,) * 4, k_level=0.0)
        assert ext.a_coeffs == (0.0,) * 4

    @pytest.mark.parametrize("k", range(9))
    def test_default_is_the_pure_filter(self, k):
        # no a_coeffs, or (), stands for k+1 zeros: the same parameters and
        # the same run, bit for bit
        explicit = ExtendedParams(k=k, theta=0.5, a_coeffs=(0.0,) * (k + 1), k_level=0.0)
        assert ExtendedParams(k, 0.5) == explicit == ExtendedParams(k, 0.5, ())
        xs = noisy_series(400)
        pure, zeros = run(xs, ExtendedParams(k, 0.5)), run(xs, explicit)
        assert pure.estimates.tobytes() == zeros.estimates.tobytes()
        assert pure.residuals.tobytes() == zeros.residuals.tobytes()
        assert pure.s_n == zeros.s_n


class TestGarchParams:
    def test_valid_construction(self):
        par = GarchParams(p=2, q=2, k_const=0.01, g_coeffs=(0.5, 0.2), a_coeffs=(0.1, 0.1))
        assert par.p == 2 and par.q == 2

    def test_rejects_non_positive_orders(self):
        with pytest.raises(ValueError):
            GarchParams(p=0, q=1, k_const=0.0, g_coeffs=(), a_coeffs=(0.5,))

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            GarchParams(p=2, q=1, k_const=0.0, g_coeffs=(0.5,), a_coeffs=(0.1,))
        with pytest.raises(ValueError):
            GarchParams(p=1, q=2, k_const=0.0, g_coeffs=(0.5,), a_coeffs=(0.1,))

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            GarchParams(p=1, q=1, k_const=0.0, g_coeffs=(-0.1,), a_coeffs=(0.1,))
        with pytest.raises(ValueError):
            GarchParams(p=1, q=1, k_const=-0.01, g_coeffs=(0.5,), a_coeffs=(0.1,))

    def test_rejects_explosive_sum(self):
        with pytest.raises(ValueError):
            GarchParams(p=1, q=1, k_const=0.0, g_coeffs=(0.6,), a_coeffs=(0.5,))

    def test_accepts_unit_sum(self):
        par = GarchParams(p=1, q=1, k_const=0.0, g_coeffs=(0.75,), a_coeffs=(0.25,))
        assert par.g_coeffs[0] + par.a_coeffs[0] == 1.0


class TestInitState:
    def test_constant_warmup(self):
        st = init_state(0, [0.1, 0.1, 0.1])
        assert_allclose(st.v_hat, 0.1, rtol=1e-15)
        st = init_state(0, [0.125] * 5)
        assert st.v_hat == 0.125

    def test_two_point_mean(self):
        st = init_state(1, [0.2, 0.4])
        assert_allclose(st.v_hat, 0.3, rtol=1e-12)
        assert st.derivatives == (0.0,)

    def test_matches_numpy_mean(self):
        w = noisy_series(40)
        st = init_state(2, w)
        assert st.v_hat == float(np.mean(w))
        assert st.derivatives == (0.0, 0.0)

    def test_rejects_empty_warmup(self):
        with pytest.raises(ValueError):
            init_state(0, [])

    def test_rejects_non_finite_warmup(self):
        with pytest.raises(DataError):
            init_state(0, [0.1, math.nan])

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            init_state(12, [0.1, 0.2])


class TestStepAdaptive:
    def test_single_step_arithmetic(self):
        # k=0, theta=1, n=1000: gain is 1/1000^(2/3), pure filter moves
        # one hundredth of the residual: 0.1 + 0.01 * 0.1 = 0.101.
        sch = gain_schedule(0, 1.0, 1000)
        ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(0.0,), k_level=0.0)
        st, res = step_adaptive(FilterState(v_hat=0.1), 0.2, sch, ext)
        assert res == 0.2 - 0.1
        assert_allclose(st.v_hat, 0.101, rtol=1e-12)
        g0 = float(sch.step_gains[0])
        expected = (1.0 - 0.0 / 1000 - g0) * 0.1
        expected += (0.0 / 1000) * 0.0
        expected += g0 * 0.2
        assert st.v_hat == expected

    def test_full_relaxation_fixed_point(self):
        # With a1 = n the level term replaces the estimate outright, so
        # K = x = v_hat is a one-step fixed point.
        n = 1000
        sch = gain_schedule(0, 1.0, n)
        for v in (0.09, 0.125, 0.0734):
            ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(float(n),), k_level=v)
            st, res = step_adaptive(FilterState(v_hat=v), v, sch, ext)
            assert st.v_hat == v
            assert res == 0.0

    def test_order_mismatch_rejected(self):
        sch = gain_schedule(0, 1.0, 1000)
        ext = ExtendedParams(k=1, theta=1.0, a_coeffs=(0.0, 0.0), k_level=0.0)
        with pytest.raises(ValueError):
            step_adaptive(FilterState(v_hat=0.1, derivatives=(0.0,)), 0.2, sch, ext)

    def test_theta_mismatch_rejected(self):
        # the gains come from the schedule, so a schedule built for another
        # theta would silently override ext.theta
        ext = ExtendedParams(k=0, theta=0.8, a_coeffs=(0.0,), k_level=0.0)
        with pytest.raises(ValueError, match="theta"):
            step_adaptive(FilterState(v_hat=0.1), 0.2, gain_schedule(0, 50.0, 1000), ext)

    def test_non_finite_observation_rejected(self):
        sch = gain_schedule(0, 1.0, 1000)
        ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(0.0,), k_level=0.0)
        with pytest.raises(DataError):
            step_adaptive(FilterState(v_hat=0.1), math.inf, sch, ext)

    def test_first_order_recursion_matches_hand_loop(self):
        # Pure k=1 filter re-rolled by hand with the same float ordering.
        xs = noisy_series(600)
        n = xs.size
        sch = gain_schedule(1, 0.8, n)
        g = [float(t) for t in sch.step_gains]
        ext = ExtendedParams(k=1, theta=0.8, a_coeffs=(0.0, 0.0), k_level=0.0)
        v, d = 0.11, 0.0
        for x in xs:
            st, res = step_adaptive(
                FilterState(v_hat=v, derivatives=(d,)), float(x), sch, ext
            )
            resid = float(x) - v
            new_v = v + d / n + g[0] * resid
            new_d = d * (1.0 - 0.0 / n)
            new_d -= (0.0 / n) * v
            new_d += (0.0 / n) * 0.0
            new_d += g[1] * resid
            assert st.v_hat == new_v
            assert st.derivatives[0] == new_d
            assert res == resid
            v, d = st.v_hat, st.derivatives[0]


def order_k_reference(xs, ext: ExtendedParams) -> tuple[np.ndarray, np.ndarray]:
    """run() of order-k parameters, transcribed from the general update."""
    n, k = xs.size, ext.k
    g = [float(t) for t in gain_schedule(k, ext.theta, n).step_gains]
    a_over_n = [c / n for c in ext.a_coeffs]
    damp = 1.0 - ext.a_coeffs[0] / n
    level_term = a_over_n[k] * ext.k_level
    z = [init_state(k, xs[: _warmup_count(n)]).v_hat] + [0.0] * k
    est, res = np.empty(n), np.empty(n)
    for i, x in enumerate(xs.tolist()):
        est[i] = z[0]
        r = res[i] = x - z[0]
        t = z[k] * damp
        for ell in range(2, k + 2):
            t = t - a_over_n[ell - 1] * z[k + 1 - ell]
        t = t + level_term
        z = [z[j] + z[j + 1] / n + g[j] * r for j in range(k)] + [t + g[k] * r]
    return est, res


class TestOrderOneFold:
    @pytest.mark.parametrize(
        "a_coeffs, k_level",
        # the last two keep d small beside the relaxation terms, so that a
        # reordered sum rounds differently on hundreds of steps
        [((0.0, 0.0), 0.0), ((2.0, 1.0), 0.09), ((10.0, 300.0), 0.09), ((1.0, 100.0), 0.05)],
    )
    def test_matches_general_update_bit_for_bit(self, a_coeffs, k_level):
        # k=1 has its own unrolled loop; it must keep the general loop's
        # float operations in the same order
        xs = noisy_series(4000, seed=11)
        ext = ExtendedParams(k=1, theta=2.5, a_coeffs=a_coeffs, k_level=k_level)
        est, res = order_k_reference(xs, ext)
        result = run(xs, ext)
        assert result.estimates.tobytes() == est.tobytes()
        assert result.residuals.tobytes() == res.tobytes()

    def test_reference_matches_general_loop(self):
        # the transcription itself agrees with the loop k >= 2 runs
        xs = noisy_series(500, seed=12)
        ext = ExtendedParams(k=2, theta=1.5, a_coeffs=(3.0, 3.0, 1.0), k_level=0.09)
        est, res = order_k_reference(xs, ext)
        assert run(xs, ext).estimates.tobytes() == est.tobytes()
        assert run(xs, ext).residuals.tobytes() == res.tobytes()


# Observations that tell two evaluations of one recursion apart if either
# mishandles a sign of zero, a subnormal or a negative value.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -1.0]


@st.composite
def first_order_cases(draw):
    """v0, a series and (c_v, c, g) of the k=0 level filter or GARCH(1,1)
    with a zero constant, across the tuners' theta box [0.01, 1000]."""
    n = draw(st.integers(2, 20_000))
    values = st.sampled_from(_EDGE_VALUES) | st.floats(-10.0, 10.0)
    pool = np.array(draw(st.lists(values, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.05, 1.0]))
    xs = np.where(rng.random(n) < share, rng.choice(pool, n), rng.normal(0.09, 0.1, n))
    if draw(st.booleans()):
        theta = draw(st.floats(0.01, 1000.0))
        a1 = draw(st.just(0.0) | st.floats(0.0, n / 10, exclude_max=True))
        level = draw(st.sampled_from([0.0, -0.0]))
        ext = ExtendedParams(k=0, theta=theta, a_coeffs=(a1,), k_level=level)
        coeffs = _level_first_order(gain_schedule(0, theta, n), ext)
    else:
        g1, a1 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        coeffs = (g1, 0.0, a1 * (1.0 - g1))
    return draw(values), xs, *coeffs


class TestCompiledFirstOrder:
    @settings(max_examples=150, deadline=None)
    @given(first_order_cases())
    @example((-0.0, np.full(6, -0.0), 0.5, 0.0, 0.5))
    @example((-0.0, np.array([-0.0, 1.0, -0.0, -0.0, -1.0]), 0.5, -0.0, 0.5))
    # theta=1000 lies past the k=0 stability bound at n=4000: +-inf from
    # step 658 on
    @example(
        (
            0.09,
            noisy_series(4000),
            *_level_first_order(gain_schedule(0, 1000.0, 4000), ExtendedParams(0, 1000.0, (0.0,))),
        )
    )
    def test_matches_the_python_fold_bit_for_bit(self, case):
        # The guard against a kernel build that contracts c_v y + g x into a
        # fused multiply-add, or that loses a sign of zero
        v0, xs, c_v, c, g = case
        expected = []
        final = _fold_first_order(v0, xs.tolist(), c_v, c, g, expected)
        estimates, v = _first_order(v0, xs, c_v, c, g)
        assert estimates.tobytes() == np.array(expected).tobytes()
        assert np.float64(v).tobytes() == np.float64(final).tobytes()


class TestKernelFallback:
    def test_public_lfilter_gives_the_kernels_bits(self, monkeypatch, tmp_path):
        # A SciPy whose scipy/signal folder holds no _sigtools file: the
        # lookup falls back to the public lfilter, which runs the same routine
        case = (0.09, noisy_series(5000), 0.95, 0.0, 0.05)  # c = +0.0: the kernel's case
        filters._linear_filter.cache_clear()
        private = _first_order(*case)
        monkeypatch.setattr(filters.scipy, "__file__", str(tmp_path / "__init__.py"))
        filters._linear_filter.cache_clear()
        try:
            kernel = filters._linear_filter()
            public = _first_order(*case)
        finally:
            filters._linear_filter.cache_clear()
        from scipy.signal import lfilter

        assert kernel is lfilter
        assert public[0].tobytes() == private[0].tobytes()
        assert np.float64(public[1]).tobytes() == np.float64(private[1]).tobytes()


class TestStepGarch:
    def test_single_step_arithmetic(self):
        # 0.01 + 0.9 * 0.1 + 0.05 * 0.2 = 0.11.
        par = GarchParams(p=1, q=1, k_const=0.01, g_coeffs=(0.9,), a_coeffs=(0.05,))
        est, res = step_garch(([0.1], []), 0.2, par)
        assert_allclose(est, 0.11, rtol=1e-12)
        assert res == 0.2 - 0.1

    def test_degenerate_constant_output(self):
        par = GarchParams(p=1, q=1, k_const=0.04, g_coeffs=(0.0,), a_coeffs=(0.0,))
        for v, x in ((0.1, 0.2), (3.0, 0.0), (0.04, 7.5)):
            est, _ = step_garch(([v], []), x, par)
            assert est == 0.04

    def test_history_length_checked(self):
        par = GarchParams(p=2, q=2, k_const=0.01, g_coeffs=(0.5, 0.2), a_coeffs=(0.1, 0.1))
        with pytest.raises(ValueError):
            step_garch(([0.1], [0.1]), 0.2, par)
        with pytest.raises(ValueError):
            step_garch(([0.1, 0.1], []), 0.2, par)

    def test_non_finite_observation_rejected(self):
        par = GarchParams(p=1, q=1, k_const=0.01, g_coeffs=(0.5,), a_coeffs=(0.1,))
        with pytest.raises(DataError):
            step_garch(([0.1], []), math.nan, par)

    def test_second_order_matches_hand_loop(self):
        # 500 steps of GARCH(2, 2) re-rolled with the same accumulation order.
        xs = noisy_series(500)
        par = GarchParams(p=2, q=2, k_const=0.004, g_coeffs=(0.55, 0.2), a_coeffs=(0.12, 0.08))
        v0 = float(xs[0])
        est_hist, obs_hist = [v0, v0], [v0]
        for x in xs.tolist():
            est, res = step_garch((est_hist, obs_hist), x, par)
            acc = par.k_const
            acc = acc + par.g_coeffs[0] * est_hist[-1]
            acc = acc + par.g_coeffs[1] * est_hist[-2]
            acc = acc + par.a_coeffs[0] * x
            acc = acc + par.a_coeffs[1] * obs_hist[-1]
            assert est == acc
            assert res == x - est_hist[-1]
            est_hist.append(est)
            obs_hist.append(x)


class TestRunAdaptive:
    @pytest.mark.parametrize(
        "k, a_coeffs, k_level",
        [pytest.param(k, stable_a(k), 0.09, id=str(k)) for k in range(5)]
        # K = 0 puts run() on the compiled first-order path, with and without
        # relaxation
        + [
            pytest.param(0, (0.0,), 0.0, id="0-pure"),
            pytest.param(0, (1.0,), 0.0, id="0-K0"),
        ],
    )
    def test_run_equals_step_composition(self, k, a_coeffs, k_level):
        xs = noisy_series(800)
        n = xs.size
        ext = ExtendedParams(k=k, theta=0.8, a_coeffs=a_coeffs, k_level=k_level)
        result = run(xs, ext)
        sch = gain_schedule(k, ext.theta, n)
        st = init_state(k, xs[: _warmup_count(n)])
        est = np.empty(n)
        res = np.empty(n)
        for i, x in enumerate(xs):
            est[i] = st.v_hat
            st, res[i] = step_adaptive(st, float(x), sch, ext)
        assert np.array_equal(est, result.estimates)
        assert np.array_equal(res, result.residuals)

    def test_seeded_at_warmup_mean(self):
        xs = noisy_series(800)
        ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(0.0,), k_level=0.0)
        result = run(xs, ext)
        assert result.estimates[0] == float(np.mean(xs[:20]))
        short = run(xs[:30], ext)
        assert short.estimates[0] == float(np.mean(xs[:2]))

    def test_constant_series_fixed_point(self):
        # A constant series starts the filter at its own level, so every
        # residual vanishes identically.
        for k, c in ((0, 0.125), (0, 0.09), (1, 0.09), (2, 0.0625)):
            xs = np.full(200, c)
            ext = ExtendedParams(k=k, theta=1.0, a_coeffs=(0.0,) * (k + 1), k_level=0.0)
            result = run(xs, ext)
            assert result.s_n == 0.0
            assert np.all(result.residuals == 0.0)
            assert np.all(result.estimates == c)

    def test_mean_squared_residual_recomputed(self):
        xs = noisy_series(500)
        ext = ExtendedParams(k=1, theta=0.8, a_coeffs=(2.0, 1.0), k_level=0.09)
        result = run(xs, ext)
        assert_allclose(result.residuals, xs - result.estimates, rtol=0, atol=0)
        assert_allclose(
            result.s_n, float(np.mean(np.square(xs - result.estimates))), rtol=1e-12
        )

    def test_no_lookahead(self):
        xs = noisy_series(800)
        ext = ExtendedParams(k=1, theta=0.8, a_coeffs=(2.0, 1.0), k_level=0.09)
        base = run(xs, ext)
        xs_mod = xs.copy()
        xs_mod[600:] = 0.5
        mod = run(xs_mod, ext)
        # estimates[600] is formed before observation 600 arrives.
        assert np.array_equal(base.estimates[:601], mod.estimates[:601])
        assert base.estimates[601] != mod.estimates[601]

    def test_tiny_theta_freezes_estimate(self):
        xs = noisy_series(800)
        ext = ExtendedParams(k=0, theta=1e-12, a_coeffs=(0.0,), k_level=0.0)
        result = run(xs, ext)
        assert float(np.ptp(result.estimates)) < 1e-12
        v0 = float(result.estimates[0])
        assert_allclose(result.s_n, float(np.mean((xs - v0) ** 2)), rtol=1e-9)

    def test_bounded_on_bounded_input(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 1.0, size=200_000)
        ext = ExtendedParams(k=2, theta=5.0, a_coeffs=(3.0, 3.0, 1.0), k_level=0.5)
        result = run(xs, ext)
        assert np.all(np.isfinite(result.estimates))
        assert float(np.max(np.abs(result.estimates))) <= 2.0

    def test_rejects_short_series(self):
        ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(0.0,), k_level=0.0)
        with pytest.raises(ValueError):
            run([0.1], ext)

    def test_rejects_non_finite_with_index(self):
        xs = [0.1, 0.2, 0.1, math.nan, 0.2]
        ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(0.0,), k_level=0.0)
        with pytest.raises(DataError, match="3"):
            run(xs, ext)

    def test_rejects_relaxation_too_strong_for_length(self):
        xs = noisy_series(800)
        ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(80.0,), k_level=0.09)
        with pytest.raises(ValueError):
            run(xs, ext)
        ok = ExtendedParams(
            k=0, theta=1.0, a_coeffs=(math.nextafter(80.0, 0.0),), k_level=0.09
        )
        run(xs, ok)

    def test_rejects_unknown_parameter_type(self):
        with pytest.raises(ValueError):
            run(noisy_series(100), object())


class TestRunGarch:
    def test_prefix_property(self):
        # GARCH seeding and coefficients do not depend on the series
        # length, so a prefix run reproduces the prefix of estimates.
        xs = noisy_series(800)
        par = GarchParams(p=2, q=2, k_const=0.004, g_coeffs=(0.55, 0.2), a_coeffs=(0.12, 0.08))
        full = run(xs, par)
        part = run(xs[:300], par)
        assert np.array_equal(full.estimates[:300], part.estimates)

    def test_seeded_at_first_observation(self):
        xs = noisy_series(300)
        par = GarchParams(p=1, q=1, k_const=0.01, g_coeffs=(0.5,), a_coeffs=(0.2,))
        result = run(xs, par)
        assert result.estimates[0] == float(xs[0])

    def test_estimates_stay_non_negative(self):
        xs = np.concatenate([noisy_series(100), np.zeros(200)])
        par = GarchParams(p=1, q=1, k_const=0.0, g_coeffs=(0.2,), a_coeffs=(0.1,))
        result = run(xs, par)
        assert np.all(result.estimates >= 0.0)

    def test_mean_squared_residual_recomputed(self):
        xs = noisy_series(400)
        par = GarchParams(p=1, q=1, k_const=0.01, g_coeffs=(0.6,), a_coeffs=(0.3,))
        result = run(xs, par)
        assert_allclose(
            result.s_n, float(np.mean(np.square(xs - result.estimates))), rtol=1e-12
        )

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_basis_responses_combine_to_the_run(self, p, q):
        # For fixed g the estimates are affine in (K, a): the seed column
        # plus K and a_m times their response columns.  The shifted series
        # drives the estimates below zero, where nothing floors them.
        g = (0.5, 0.3)[:p]
        a = (0.1, 0.05)[:q]
        par = GarchParams(p=p, q=q, k_const=0.01, g_coeffs=g, a_coeffs=a)
        for xs in (noisy_series(300), noisy_series(300) - 0.5):
            basis = _GarchSystem(xs, p, q).basis(g)
            assert basis.shape == (300, 2 + q)
            combined = basis[:, 0] + 0.01 * basis[:, 1] + basis[:, 2:] @ np.asarray(a)
            assert_allclose(combined, run(xs, par).estimates, rtol=1e-13, atol=1e-15)


class TestGarchTwin:
    def test_pure_filter_matches_garch_twin_stepwise(self):
        # A pure k=0 filter with gain g is GARCH(1, 1) with K=0, g1=1-g,
        # a1=g.  Iterating both from the same state must agree bit for bit.
        xs = noisy_series(1000)
        n = xs.size
        sch = gain_schedule(0, 0.8, n)
        g0 = float(sch.step_gains[0])
        ext = ExtendedParams(k=0, theta=0.8, a_coeffs=(0.0,), k_level=0.0)
        twin = GarchParams(p=1, q=1, k_const=0.0, g_coeffs=(1.0 - g0,), a_coeffs=(g0,))
        v = 0.11
        for x in xs:
            st, res_a = step_adaptive(FilterState(v_hat=v), float(x), sch, ext)
            est_g, res_g = step_garch(([v], []), float(x), twin)
            assert st.v_hat == est_g
            assert res_a == res_g
            v = st.v_hat

    @settings(max_examples=60)
    @given(
        st.integers(2, 5000),
        st.floats(1e-3, 50.0),
        st.floats(0.0, 0.1),
        st.floats(0.0, 10.0),
        st.floats(-1.0, 1.0),
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
    )
    def test_relaxed_filter_matches_garch_twin_stepwise(
        self, n, theta, a_frac, level, v, xs
    ):
        # The k=0 filter relaxed toward K is GARCH(1, 1) with constant
        # (a_1/n) K, g_1 = 1 - a_1/n - g_0 and reaction coefficient g_0, also
        # on negative observations.
        a1 = a_frac * n
        sch = gain_schedule(0, theta, n)
        g0 = float(sch.step_gains[0])
        c_v = 1.0 - a1 / n - g0
        assume(c_v >= 0.0)
        ext = ExtendedParams(k=0, theta=theta, a_coeffs=(a1,), k_level=level)
        twin = GarchParams(
            p=1, q=1, k_const=a1 / n * level, g_coeffs=(c_v,), a_coeffs=(g0,)
        )
        for x in xs:
            st_a, res_a = step_adaptive(FilterState(v_hat=v), x, sch, ext)
            est_g, res_g = step_garch(([v], []), x, twin)
            assert st_a.v_hat == est_g
            assert res_a == res_g
            v = est_g


_PROPERTY_SETTINGS = settings(max_examples=30)


@st.composite
def extended_cases(draw):
    """A series and order-k parameters inside run()'s operating range."""
    k = draw(st.integers(0, 8))
    n = draw(st.integers(120, 300))
    theta = draw(st.floats(1e-2, 10.0))
    if draw(st.booleans()):
        a_coeffs, k_level = (0.0,) * (k + 1), 0.0
    else:
        # Coefficients of prod (x + r_i) with r_i > 0 are Hurwitz, and with
        # r_i <= 0.5 the largest stays below n/10 for n >= 120.
        roots = draw(st.lists(st.floats(0.05, 0.5), min_size=k + 1, max_size=k + 1))
        a_coeffs = tuple(float(c) for c in np.poly([-r for r in roots])[1:])
        k_level = draw(st.floats(0.0, 0.2))
    ext = ExtendedParams(k=k, theta=theta, a_coeffs=a_coeffs, k_level=k_level)
    return noisy_series(n, seed=draw(st.integers(0, 2**32 - 1))), ext


@st.composite
def garch_cases(draw):
    """A series and GARCH(p, q) coefficients, non-negative with sum <= 1."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=p + q, max_size=p + q))
    total = draw(st.floats(0.0, 1.0))
    scale = total / sum(weights) if sum(weights) > 0.0 else 0.0
    coeffs = [w * scale for w in weights]
    par = GarchParams(
        p=p,
        q=q,
        k_const=draw(st.just(0.0) | st.floats(0.0, 0.01)),
        g_coeffs=tuple(coeffs[:p]),
        a_coeffs=tuple(coeffs[p:]),
    )
    n = draw(st.integers(2, 300))
    return noisy_series(n, seed=draw(st.integers(0, 2**32 - 1))), par


_GARCH22 = GarchParams(2, 2, 0.004, (0.55, 0.2), (0.12, 0.08))


class TestRunStepProperties:
    @_PROPERTY_SETTINGS
    @given(extended_cases())
    # K = 0 puts run() on the compiled first-order path
    @example((noisy_series(200, seed=5), ExtendedParams(0, 0.8, (0.0,))))
    @example((noisy_series(200, seed=5), ExtendedParams(0, 0.8, (4.0,))))
    def test_run_equals_step_adaptive_composition(self, case):
        xs, ext = case
        n = xs.size
        result = run(xs, ext)
        sch = gain_schedule(ext.k, ext.theta, n)
        state = init_state(ext.k, xs[: _warmup_count(n)])
        est = np.empty(n)
        res = np.empty(n)
        for i, x in enumerate(xs):
            est[i] = state.v_hat
            state, res[i] = step_adaptive(state, float(x), sch, ext)
        assert np.all(np.isfinite(result.estimates))
        assert np.array_equal(est, result.estimates)
        assert np.array_equal(res, result.residuals)

    def test_run_equals_step_composition_on_a_diverging_run(self):
        # theta=1000 lies past the k=0 stability bound 2 n^(2/3) ~ 504: the
        # estimates alternate in sign, overflow to +-inf and S_n is inf
        xs = noisy_series(4000)
        n = xs.size
        ext = ExtendedParams(k=0, theta=1000.0, a_coeffs=(0.0,))
        with np.errstate(over="ignore", invalid="ignore"):
            result = run(xs, ext)
        sch = gain_schedule(0, ext.theta, n)
        state = init_state(0, xs[: _warmup_count(n)])
        est, res = [], []
        # a FilterState holds only finite estimates, so the steps stop at the
        # first update that overflows
        with pytest.raises(ValueError, match="finite"):
            for x in xs.tolist():
                est.append(state.v_hat)
                state, r = step_adaptive(state, x, sch, ext)
                res.append(r)
        m = len(est)
        assert 0 < m < n and len(res) == m - 1
        assert np.array(est).tobytes() == result.estimates[:m].tobytes()
        assert np.array(res).tobytes() == result.residuals[: m - 1].tobytes()
        assert float(xs[m - 1]) - est[-1] == result.residuals[m - 1]
        tail = result.estimates[m:]
        assert np.all(np.isinf(tail)) and np.all(tail[1:] == -tail[:-1])
        assert result.residuals[m:].tobytes() == (-tail).tobytes()
        assert result.s_n == math.inf

    @_PROPERTY_SETTINGS
    @given(garch_cases())
    @example((noisy_series(300, seed=5), GarchParams(1, 1, 0.0, (0.7,), (0.3,))))
    # GARCH(2, 2) has its own unrolled fold
    @example((noisy_series(300, seed=5), _GARCH22))
    def test_run_equals_step_garch_composition(self, case):
        xs, par = case
        result = run(xs, par)
        v0 = float(xs[0])
        est_hist, obs_hist = [v0] * par.p, [v0] * (par.q - 1)
        est = np.empty(xs.size)
        res = np.empty(xs.size)
        for i, x in enumerate(xs.tolist()):
            est[i] = est_hist[-1]
            new_v, res[i] = step_garch((est_hist, obs_hist), x, par)
            est_hist.append(new_v)
            obs_hist.append(x)
        assert np.array_equal(est, result.estimates)
        assert np.array_equal(res, result.residuals)


def garch_reference(xs, par: GarchParams, est, obs) -> tuple[np.ndarray, float]:
    """GARCH(p, q) predictions of xs and the final estimate, from the prior
    estimates est and observations obs (most recent last), summed in the
    documented order: K, then g_j v[i-j] for j = 1..p, then a_1 x, then
    a_m X[i+1-m] for m = 2..q."""
    v, obs = list(est), list(obs)
    for x in xs.tolist():
        acc = par.k_const
        for j in range(1, par.p + 1):
            acc = acc + par.g_coeffs[j - 1] * v[-j]
        acc = acc + par.a_coeffs[0] * x
        for m in range(2, par.q + 1):
            acc = acc + par.a_coeffs[m - 1] * obs[1 - m]
        v.append(acc)
        obs.append(x)
    return np.array(v[len(est) - 1 : -1]), v[-1]



class TestGarchFoldOrder:
    """Every GARCH fold (the first-order one for (1, 1), the unrolled one
    for (2, 2) and the general loop) keeps the documented operation
    order, so it matches a plain loop bit for bit."""

    @_PROPERTY_SETTINGS
    @given(garch_cases())
    @example((np.full(6, -0.0), GarchParams(2, 2, -0.0, (0.5, 0.25), (0.125, 0.125))))
    @example((noisy_series(300, seed=5) * np.resize([1.0, -1.0], 300), _GARCH22))
    @example((noisy_series(2, seed=5), _GARCH22))
    # the estimates overflow to inf, and 0 * inf makes them nan
    @example(
        (1e300 * noisy_series(60, seed=5), GarchParams(2, 2, 1e308, (0.9, 0.0), (0.05, 0.05)))
    )
    def test_run_matches_reference_loop(self, case):
        xs, par = case
        v0 = float(xs[0])
        est, _ = garch_reference(xs, par, [v0] * par.p, [v0] * (par.q - 1))
        with np.errstate(over="ignore", invalid="ignore"):
            result = run(xs, par)
            res = xs - est
        assert result.estimates.tobytes() == est.tobytes()
        assert result.residuals.tobytes() == res.tobytes()

    @pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (2, 2), (3, 3)])
    def test_fold_from_a_history_matches_reference_loop(self, p, q):
        # run() pads the history with x[0]; distinct prior values tell each
        # of them apart
        par = GarchParams(p, q, 0.004, (0.55, 0.2, 0.05)[:p], (0.12, 0.06, 0.02)[:q])
        xs = noisy_series(200, seed=9)
        est, obs = [0.3, 0.2, 0.1][:p], [0.7, 0.5][: q - 1]
        preds, last = filters._fold_garch(est, obs, xs, par)
        ref_preds, ref_last = garch_reference(xs, par, est, obs)
        assert preds.tobytes() == ref_preds.tobytes()
        assert last == ref_last


def fused_kernel(b, a, x, axis, zi):
    """A stand-in for the compiled kernel that forms g x + c_v y with one
    rounding, as a fused multiply-add would, from exact fractions."""
    g, c_v, z = Fraction(b[1]), Fraction(-a[1]), float(zi[0])
    y = np.empty_like(x)
    for i, xi in enumerate(x.tolist()):
        y[i] = 0.0 * xi + z
        z = float(g * Fraction(xi) + c_v * Fraction(float(y[i])))
    return y, np.array([z])


class TestOneFoldForRunAndSteps:
    """run and the step functions reach the compiled kernel through the same
    fold, so they agree bit for bit even with a kernel that rounds unlike
    the Python fold."""

    @pytest.fixture(autouse=True)
    def fused(self, monkeypatch):
        monkeypatch.setattr(filters, "_linear_filter", lambda: fused_kernel)

    def test_level_filter(self):
        xs = noisy_series(800)
        n = xs.size
        ext = ExtendedParams(k=0, theta=0.8, a_coeffs=(0.0,))
        result = run(xs, ext)
        sch = gain_schedule(0, ext.theta, n)
        state = init_state(0, xs[: _warmup_count(n)])
        est = []
        for x in xs.tolist():
            est.append(state.v_hat)
            state, _ = step_adaptive(state, x, sch, ext)
        assert np.array(est).tobytes() == result.estimates.tobytes()
        python_fold = []
        _fold_first_order(est[0], xs.tolist(), *_level_first_order(sch, ext), python_fold)
        assert np.array(python_fold).tobytes() != result.estimates.tobytes()

    def test_garch_twin(self):
        xs = noisy_series(800)
        par = GarchParams(p=1, q=1, k_const=0.0, g_coeffs=(0.7,), a_coeffs=(0.3,))
        result = run(xs, par)
        est = [float(xs[0])]
        for x in xs.tolist()[:-1]:
            est.append(step_garch((est, []), x, par)[0])
        assert np.array(est).tobytes() == result.estimates.tobytes()
        python_fold = []
        _fold_first_order(est[0], xs.tolist(), 0.7, 0.0, 0.3, python_fold)
        assert np.array(python_fold).tobytes() != result.estimates.tobytes()


_FAMILIES = (
    "k0-pure", "k0-relaxed", "k1-pure", "k1-relaxed", "k2-pure", "k2-relaxed",
    "garch11", "garch22", "garch31",
)


def family_params(data, family: str, n: int) -> ExtendedParams | GarchParams:
    """Parameters of one family for a run of n, drawn from data."""
    if family.startswith("garch"):
        p, q = int(family[5]), int(family[6])
        weights = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=p + q, max_size=p + q)
        )
        total = data.draw(st.floats(0.0, 1.0))
        scale = total / sum(weights) if sum(weights) > 0.0 else 0.0
        coeffs = [w * scale for w in weights]
        k_const = data.draw(st.floats(0.0, 0.01))
        return GarchParams(p, q, k_const, tuple(coeffs[:p]), tuple(coeffs[p:]))
    k, theta = int(family[1]), data.draw(st.floats(1e-2, 10.0))
    if family.endswith("pure"):
        return ExtendedParams(k, theta)
    # prod (x + r_i) with 0 < r_i <= 0.5 is Hurwitz, its largest
    # coefficient below n/10 for n >= 120 (see extended_cases)
    roots = data.draw(st.lists(st.floats(0.05, 0.5), min_size=k + 1, max_size=k + 1))
    a_coeffs = tuple(float(c) for c in np.poly([-r for r in roots])[1:])
    return ExtendedParams(k, theta, a_coeffs, data.draw(st.floats(0.0, 0.2)))


class TestPreparedSeries:
    """run() on a prepared series is run() on the plain series, bit for bit."""

    @pytest.mark.parametrize("family", _FAMILIES)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_prepared_run_equals_plain_run(self, family, data):
        n = data.draw(st.integers(120 if family.endswith("relaxed") else 2, 300))
        xs = noisy_series(n, seed=data.draw(st.integers(0, 2**32 - 1)))
        par = family_params(data, family, n)
        prepared = run(PreparedSeries(xs), par)
        plain = run(list(xs), par)
        assert prepared.estimates.tobytes() == plain.estimates.tobytes()
        assert prepared.residuals.tobytes() == plain.residuals.tobytes()
        assert prepared.s_n.hex() == plain.s_n.hex()
        # S_n as np.mean forms it
        assert plain.s_n.hex() == float(np.mean(np.square(xs - plain.estimates))).hex()

    def test_one_preparation_serves_many_runs(self):
        xs = noisy_series(300)
        series = PreparedSeries(xs)
        assert len(series) == series.n == 300
        relaxed = ExtendedParams(0, 2.0, (3.0,), 0.1)
        for par in (ExtendedParams(1, 0.5), _GARCH22, relaxed):
            assert run(series, par).s_n.hex() == run(xs, par).s_n.hex()

    @pytest.mark.parametrize("n", [2, 125, 4000])
    def test_start_is_the_warmup_mean(self, n):
        xs = noisy_series(n)
        warmup = xs[: min(20, math.ceil(n / 20))]
        assert PreparedSeries(xs).start.hex() == init_state(0, warmup).v_hat.hex()

    def test_holds_a_read_only_copy(self):
        xs = noisy_series(300)
        series = PreparedSeries(xs)
        before = run(series, _GARCH22)
        xs[:] = np.nan
        assert not series.x.flags.writeable
        assert run(series, _GARCH22).s_n == before.s_n


class TestOperatingBox:
    """run() keeps max(a) < n/10: one ulp inside runs, the edge itself is
    refused.  K has no bound (TestUnits)."""

    @pytest.mark.parametrize("n", [2, 125, 4000])
    @pytest.mark.parametrize("k", [0, 1])
    def test_one_ulp_inside_runs(self, n, k):
        xs = noisy_series(n)
        a_in, k_in = math.nextafter(n / 10, 0.0), math.nextafter(float(n), 0.0)
        for a, level in ((a_in, 0.0), (0.0, k_in), (0.0, -k_in), (a_in, k_in)):
            par = ExtendedParams(k, 1.0, (a,) * (k + 1), level)
            assert math.isfinite(run(xs, par).s_n)

    @pytest.mark.parametrize("n", [2, 125, 4000])
    @pytest.mark.parametrize("k", [0, 1])
    def test_the_edge_is_refused(self, n, k):
        xs = noisy_series(n)
        zeros = (0.0,) * k
        with pytest.raises(ValueError, match=r"max coefficient < n/10\)$"):
            run(xs, ExtendedParams(k, 1.0, (n / 10, *zeros)))


@st.composite
def scaled_run_cases(draw):
    """A case of extended_cases, or its series with GARCH(p, q) (p, q <= 3)
    in place of its parameters; a level K of 0 or in [n/1000, 4n]; and an
    exponent e in [-60, 60].  Every coefficient is 0 or above 1e-7, and
    every recursion is fed by x or K, so on the series times 2^e no value
    comes near the subnormals."""
    xs, par = draw(extended_cases())
    n = xs.size
    level = draw(st.just(0.0) | st.floats(1e-3 * n, 4.0 * n))
    if draw(st.booleans()):
        p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        weights = draw(
            st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=p + q, max_size=p + q)
        )
        scale = draw(st.floats(1e-3, 1.0)) / sum(weights) if sum(weights) > 0.0 else 0.0
        coeffs = [w * scale for w in weights]
        # fed by neither x nor K, the estimates would decay into the subnormals
        assume(level > 0.0 or any(coeffs[p:]))
        par = GarchParams(p, q, level, tuple(coeffs[:p]), tuple(coeffs[p:]))
    else:
        par = dataclasses.replace(par, k_level=level)
    return xs, par, draw(st.integers(-60, 60))


def scaled_level(par: ExtendedParams | GarchParams, c: float):
    """par with its constant K times c."""
    if isinstance(par, GarchParams):
        return dataclasses.replace(par, k_const=par.k_const * c)
    return dataclasses.replace(par, k_level=par.k_level * c)


class TestUnits:
    """Every recursion is linear in the series and K, so scaling both by a
    power of two scales the estimates by it and S_n by its square, exactly,
    for a level K of any size."""

    @settings(max_examples=60)
    @given(scaled_run_cases())
    # K at n and past it
    @example((noisy_series(200, seed=5), ExtendedParams(0, 1.0, (1.0,), 200.0), 11))
    @example((noisy_series(200, seed=5), ExtendedParams(1, 0.8, (2.0, 1.0), 800.0), -30))
    @example((noisy_series(200, seed=5), GarchParams(2, 2, 800.0, (0.5, 0.2), (0.1, 0.1)), 60))
    def test_scaling_by_a_power_of_two_is_exact(self, case):
        xs, par, e = case
        c = math.ldexp(1.0, e)
        base = run(xs, par)
        scaled = run(xs * c, scaled_level(par, c))
        assert scaled.estimates.tobytes() == (base.estimates * c).tobytes()
        assert scaled.residuals.tobytes() == (base.residuals * c).tobytes()
        assert scaled.s_n.hex() == (base.s_n * c * c).hex()


def reference_garch_basis(x_arr, g_coeffs, q) -> np.ndarray:
    """The GARCH basis built from scratch for every g: band, input columns
    and pre-sample column in one pass, as a per-series system fills them."""
    n, p = int(x_arr.size), len(g_coeffs)
    x0 = float(x_arr[0])
    band = np.zeros((p + 1, n))
    band[0] = 1.0
    inputs = np.zeros((n, 2 + q))
    inputs[0, 0] = x0
    for j, g in enumerate(g_coeffs, start=1):
        band[j, : n - j] = -g
        inputs[1:j, 0] += g * x0
    inputs[1:, 1] = 1.0
    padded = np.concatenate((np.full(q - 1, x0), x_arr[:-1]))
    for m in range(1, q + 1):
        inputs[1:, 1 + m] = padded[q - m : q - m + n - 1]
    from scipy.linalg import lapack

    basis, _ = lapack.dtbtrs(band, inputs, uplo="L")
    return basis


class TestGarchSystem:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3])
    @settings(max_examples=8)
    @given(data=st.data())
    def test_basis_equals_a_basis_built_per_g(self, p, q, data):
        # one system serves several g in turn, as in a fit; a negative x[0]
        # makes g = 0 give -0.0 pre-sample terms
        n = data.draw(st.integers(2, 200))
        xs = noisy_series(n, seed=data.draw(st.integers(0, 2**32 - 1)))
        xs = xs - data.draw(st.sampled_from((0.0, 0.5)))
        system = _GarchSystem(xs, p, q)
        for _ in range(3):
            g = tuple(data.draw(st.sampled_from((0.0, 0.3)) | st.floats(0.0, 0.33))
                      for _ in range(p))
            want = reference_garch_basis(xs, g, q)
            assert system.basis(g).tobytes() == want.tobytes()
