"""Filter recursion tests: parameter validation, single steps, full runs.

Oracles: hand-computed single-step arithmetic, independent re-rolled
recursions compared bit for bit, exact fixed points on constant input,
externally recomputed mean squared residuals, and run-versus-step
properties over randomly drawn parameters.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from voltrack.filters import _garch_basis, _warmup_count


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
        assert st.step_index == 0

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
        assert st.step_index == 0

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
        assert st.step_index == 1

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
    @pytest.mark.parametrize("k", range(5))
    def test_run_equals_step_composition(self, k):
        xs = noisy_series(800)
        n = xs.size
        ext = ExtendedParams(k=k, theta=0.8, a_coeffs=stable_a(k), k_level=0.09)
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

    def test_rejects_level_comparable_to_length(self):
        xs = noisy_series(800)
        ext = ExtendedParams(k=0, theta=1.0, a_coeffs=(1.0,), k_level=800.0)
        with pytest.raises(ValueError):
            run(xs, ext)

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
            basis = _garch_basis(xs, g, q)
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
        k_const=draw(st.floats(0.0, 0.01)),
        g_coeffs=tuple(coeffs[:p]),
        a_coeffs=tuple(coeffs[p:]),
    )
    n = draw(st.integers(2, 300))
    return noisy_series(n, seed=draw(st.integers(0, 2**32 - 1))), par


class TestRunStepProperties:
    @_PROPERTY_SETTINGS
    @given(extended_cases())
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

