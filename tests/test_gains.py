"""Gain design tests: Riccati solutions, gain schedules, stability checks.

Oracles: the closed-form first-column table for small orders, the
Butterworth product for every order, scipy's
general-purpose continuous Riccati solver on the equivalent standard-form
problem, a hand-written residual evaluation, explicit quadratic /
polynomial-division root computations, and long zero-input runs of the
filter, which decay exactly when the step's spectral radius is below 1.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_continuous_are

from voltrack import (
    MAX_ORDER,
    ExtendedParams,
    SolverError,
    gain_schedule,
    solve_care,
    stability_report,
    step_spectral_radius,
)
from voltrack import gains
from voltrack.filters import _fold_adaptive, _step_matrix

# Closed forms for the first column of U, orders 0..4.
CLOSED_FORMS = {
    0: (1.0,),
    1: (math.sqrt(2.0), 1.0),
    2: (2.0, 2.0, 1.0),
    3: (
        math.sqrt(4.0 + math.sqrt(8.0)),
        2.0 + math.sqrt(2.0),
        math.sqrt(4.0 + math.sqrt(8.0)),
        1.0,
    ),
    4: (
        1.0 + math.sqrt(5.0),
        3.0 + math.sqrt(5.0),
        3.0 + math.sqrt(5.0),
        1.0 + math.sqrt(5.0),
        1.0,
    ),
}


def riccati_residual_oracle(u: np.ndarray) -> np.ndarray:
    """Independent evaluation of a U + U a' + B B' - U A'A U.

    a is the upper shift, A selects the first coordinate, B feeds noise
    into the last coordinate.
    """
    m = u.shape[0]
    a = np.diag(np.ones(m - 1), k=1)
    sel = np.zeros((1, m))
    sel[0, 0] = 1.0
    b = np.zeros((m, 1))
    b[m - 1, 0] = 1.0
    return a @ u + u @ a.T + b @ b.T - u @ sel.T @ sel @ u


class TestSolveCare:
    def test_first_columns_match_closed_forms(self):
        for k, expected in CLOSED_FORMS.items():
            assert_allclose(solve_care(k)[:, 0], expected, rtol=0.0, atol=1e-9)

    def test_butterworth_product_matches_closed_forms(self):
        for k, expected in CLOSED_FORMS.items():
            assert_allclose(gains._closed_form_column(k), expected, rtol=1e-15)

    def test_newton_agrees_with_butterworth_product_for_all_orders(self):
        for k in range(MAX_ORDER + 1):
            column = solve_care(k)[:, 0]
            assert_allclose(column, gains._closed_form_column(k), rtol=0.0, atol=1e-12)

    def test_error_shared_by_newton_and_residual_is_caught(self, monkeypatch):
        # A Riccati equation written wrong where Newton and the residual both
        # read it (here B B' scaled by 1 + 3e-7): the residual stays near 0,
        # but the first column moves by about 1e-6 at k=6, past the product
        noise = gains._noise_matrix
        monkeypatch.setattr(gains, "_noise_matrix", lambda m: noise(m) * (1.0 + 3e-7))
        solve_care.cache_clear()
        try:
            u = gains._newton_solve(6)
            assert np.linalg.norm(gains._riccati_residual(6, u)) < 1e-9
            assert np.max(np.abs(u[:, 0] - gains._closed_form_column(6))) > 1e-6
            with pytest.raises(SolverError, match="closed form"):
                solve_care(6)
        finally:
            solve_care.cache_clear()

    def test_residual_is_small_for_all_orders(self):
        for k in range(MAX_ORDER + 1):
            res = riccati_residual_oracle(solve_care(k))
            assert np.linalg.norm(res) < 1e-9

    def test_agrees_with_general_purpose_care_solver(self):
        # Standard form A'X + XA - XBR^{-1}B'X + Q = 0 with A = shift',
        # B = first basis column, R = 1, Q = noise covariance.
        for k in range(5):
            m = k + 1
            shift = np.diag(np.ones(m - 1), k=1)
            b = np.zeros((m, 1))
            b[0, 0] = 1.0
            q = np.zeros((m, m))
            q[m - 1, m - 1] = 1.0
            expected = solve_continuous_are(shift.T, b, q, np.eye(1))
            assert_allclose(solve_care(k), expected, rtol=1e-8, atol=1e-10)

    def test_solution_is_symmetric_positive_definite(self):
        for k in range(MAX_ORDER + 1):
            u = solve_care(k)
            assert np.array_equal(u, u.T)
            assert np.all(np.linalg.eigvalsh(u) > 0.0)

    def test_order_zero_is_exactly_one(self):
        assert solve_care(0).shape == (1, 1)
        assert solve_care(0)[0, 0] == 1.0

    def test_results_are_cached_and_immutable(self):
        u = solve_care(2)
        assert solve_care(2) is u
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
        with pytest.raises(ValueError):
            u[:, 0][0] = 0.0

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError):
            solve_care(-1)
        with pytest.raises(ValueError):
            solve_care(MAX_ORDER + 1)


class TestGainSchedule:
    def test_order_zero_gain_is_linear_in_theta(self):
        gains = gain_schedule(0, 4.0, 1000)
        assert gains.shape == (1,)
        assert gains[0] == 4.0 / 1000 ** (2 / 3)

    def test_order_one_leading_gain(self):
        # sqrt(2 theta) / n^{4/5} at theta = 1
        for n in (500, 4000):
            assert_allclose(gain_schedule(1, 1.0, n)[0], math.sqrt(2.0) / n**0.8, rtol=1e-14)

    def test_monotone_in_theta_and_n(self):
        for k in (0, 1, 3):
            lo_theta = gain_schedule(k, 0.5, 1000)
            hi_theta = gain_schedule(k, 2.0, 1000)
            assert np.all(hi_theta > lo_theta)
            big_n = gain_schedule(k, 0.5, 4000)
            assert np.all(big_n < lo_theta)

    def test_last_gain_scale_identity(self):
        # gain k times n^{(k+2)/(2k+3)} recovers U_0k * theta
        for k in range(5):
            for theta in (0.25, 1.0, 7.5):
                n = 3000
                lhs = gain_schedule(k, theta, n)[k] * n ** ((k + 2) / (2 * k + 3))
                rhs = solve_care(k)[k, 0] * theta
                assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gain_schedule(0, 0.0, 1000)
        with pytest.raises(ValueError):
            gain_schedule(0, -1.0, 1000)
        with pytest.raises(ValueError):
            gain_schedule(0, 1.0, 1)

    def test_gains_are_read_only(self):
        for k in (0, 2):
            gains = gain_schedule(k, 1.0, 1000)
            assert not gains.flags.writeable
            with pytest.raises(ValueError):
                gains[0] = 0.0


class TestStabilityReport:
    def test_order_zero_single_root(self):
        rep = stability_report(0, 2.0)
        assert rep.roots.shape == (1,)
        assert_allclose(rep.roots[0], -2.0, rtol=1e-12)
        assert rep.all_negative_real
        assert rep.all_distinct
        assert_allclose(rep.min_real_gap_to_zero, 2.0, rtol=1e-12)
        assert rep.min_pairwise_distance == math.inf

    def test_order_one_roots_against_quadratic_formula(self):
        # lambda^2 + sqrt(2) lambda + 1 = 0
        rep = stability_report(1, 1.0)
        b = math.sqrt(2.0)
        disc = math.sqrt(4.0 - b * b)
        expected = np.array(
            [complex(-b / 2.0, -disc / 2.0), complex(-b / 2.0, disc / 2.0)]
        )
        assert_allclose(rep.roots, expected, rtol=0.0, atol=1e-12)

    def test_order_two_roots_against_factorization(self):
        # lambda^3 + 2 lambda^2 + 2 lambda + 1: dividing by (lambda + 1)
        # leaves lambda^2 + lambda + 1, so the roots follow explicitly.
        coeffs = [1.0, 2.0, 2.0, 1.0]
        quotient, remainder = np.polydiv(coeffs, [1.0, 1.0])
        assert_allclose(quotient, [1.0, 1.0, 1.0], atol=1e-14)
        assert_allclose(remainder, [0.0], atol=1e-14)
        rep = stability_report(2, 1.0)
        expected = np.array(
            [
                complex(-1.0, 0.0),
                complex(-0.5, -math.sqrt(3.0) / 2.0),
                complex(-0.5, math.sqrt(3.0) / 2.0),
            ]
        )
        order = np.lexsort((expected.imag, expected.real))
        assert_allclose(rep.roots, expected[order], rtol=0.0, atol=1e-12)

    def test_stable_and_distinct_across_orders_and_thetas(self):
        # Every certified order, over the tuners' whole theta range.
        for k in range(MAX_ORDER + 1):
            for theta in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
                rep = stability_report(k, theta)
                assert rep.all_negative_real, (k, theta)
                assert rep.all_distinct, (k, theta)
                assert rep.min_real_gap_to_zero > 0.0

    def test_roots_scale_as_theta_root(self):
        # Substituting lambda = theta^{1/(k+1)} mu maps the polynomial at
        # theta onto the polynomial at 1, so roots scale accordingly.
        for k in (1, 2, 4):
            base = stability_report(k, 1.0).roots
            scaled = stability_report(k, 16.0).roots
            factor = 16.0 ** (1.0 / (k + 1))
            assert_allclose(scaled, factor * base, rtol=1e-9)

    def test_rejects_non_positive_theta(self):
        with pytest.raises(ValueError):
            stability_report(0, 0.0)


def pure_radius(k: int, theta: float, n: int) -> float:
    return step_spectral_radius(ExtendedParams(k, theta), n)


@st.composite
def radius_cases(draw):
    """An order-k filter, k <= 3, pure or relaxed, and a run length n.
    Relaxed coefficients are those of prod (x + r_i) with r_i > 0, so
    they are Hurwitz, as in tests/test_filters.py::extended_cases."""
    k = draw(st.integers(0, 3))
    theta = draw(st.floats(-1.0, 5.0).map(lambda u: 10.0**u))
    if draw(st.booleans()):
        a_coeffs = ()
    else:
        roots = draw(st.lists(st.floats(0.05, 0.5), min_size=k + 1, max_size=k + 1))
        a_coeffs = tuple(float(c) for c in np.poly([-r for r in roots])[1:])
    return ExtendedParams(k, theta, a_coeffs), draw(st.integers(2, 1000))


class TestStepSpectralRadius:
    def test_order_zero_is_the_level_coefficient(self):
        # v' = (1 - g0) v + g0 x: stable exactly for theta < 2 n^(2/3)
        for n in (125, 1000, 4000):
            for theta in (0.1, 1.0, 30.0, 50.0, 55.0, 1000.0):
                g0 = float(gain_schedule(0, theta, n)[0])
                assert pure_radius(0, theta, n) == abs(1.0 - g0)
        assert pure_radius(0, 49.99, 125) < 1.0
        assert pure_radius(0, 50.0, 125) >= 1.0
        assert_allclose(pure_radius(0, 55.0, 125), 1.2, rtol=1e-12)
        assert_allclose(pure_radius(0, 30.0, 4000), 0.880944921102385, rtol=1e-12)

    def test_fold_built_matrix_is_the_filter_step(self):
        # column j is the fold's step from e_j on observation 0; the
        # reference is I + N/n, less a_1/n d_k + ... + a_{k+1}/n v in the
        # last row, less g e_0', written out.  K is a constant input of
        # the step, so it does not enter the matrix.
        for k in range(MAX_ORDER + 1):
            relaxed = tuple(float(math.comb(k + 1, j + 1)) for j in range(k + 1))
            for a_coeffs in ((0.0,) * (k + 1), relaxed):
                for n in (2, 125, 4000, 100_000):
                    for theta in (0.01, 1.0, 55.0, 1000.0):
                        step = np.eye(k + 1) + np.eye(k + 1, k=1) / n
                        step[k, ::-1] -= np.array(a_coeffs) / n
                        step[:, 0] -= gain_schedule(k, theta, n)
                        ext = ExtendedParams(k, theta, a_coeffs, k_level=0.09)
                        matrix = _step_matrix(ext, n)
                        assert matrix.tobytes() == step.tobytes(), (k, a_coeffs, n, theta)

    def test_against_the_characteristic_polynomial(self):
        # The eigenvalues are 1 + s for the roots s of
        # s^(k+1) + g_0 s^k + (g_1/n) s^(k-1) + ... + g_k/n^k.
        for k in range(MAX_ORDER + 1):
            for n in (50, 4000):
                for theta in (0.01, 1.0, 100.0, 1000.0):
                    g = gain_schedule(k, theta, n)
                    poly = [1.0, *(g[j] / n**j for j in range(k + 1))]
                    expected = float(np.max(np.abs(1.0 + np.roots(poly))))
                    assert_allclose(
                        pure_radius(k, theta, n), expected, rtol=1e-8
                    ), (k, n, theta)

    def test_unstable_radius_means_a_growing_run(self):
        # Iterating the pure filter's homogeneous step from a unit state,
        # rescaled each step: its mean log growth is the log of the radius,
        # negative inside the region and positive outside it.
        cases = ((0, 125, (1.0, 55.0)), (1, 20, (1.0, 1000.0)), (2, 20, (1.0, 1e4)))
        for k, n, thetas in cases:
            for theta in thetas:
                g = gain_schedule(k, theta, n)
                z, log_growth = np.ones(k + 1), 0.0
                for _ in range(2000):
                    z = z + np.append(z[1:], 0.0) / n - g * z[0]
                    scale = float(np.max(np.abs(z)))
                    z, log_growth = z / scale, log_growth + math.log(scale)
                radius = pure_radius(k, theta, n)
                assert (log_growth > 0.0) == (radius >= 1.0), (k, theta)
                assert_allclose(log_growth / 2000, math.log(radius), atol=0.01)

    @settings(max_examples=100)
    @given(radius_cases())
    @example((ExtendedParams(0, 49.0), 125))
    @example((ExtendedParams(0, 51.0), 125))
    # a stable theta, but a_1/n = 2.4 alone takes the level filter past -1
    @example((ExtendedParams(0, 1.0, (300.0,)), 125))
    def test_radius_below_one_iff_the_zero_input_fold_decays(self, case):
        # The fold run() uses, on zero observations, from each unit state:
        # about 40 / |1 - r| steps shrink r^steps to e^-40 or grow it to
        # e^40, far past any transient of the step matrix.
        ext, n = case
        radius = step_spectral_radius(ext, n)
        assume(abs(1.0 - radius) >= 0.01)
        zeros = np.zeros(math.ceil(40.0 / abs(1.0 - radius)))
        final = [
            max(abs(v) for v in _fold_adaptive(unit, zeros, ext, n)[1])
            for unit in np.eye(ext.k + 1).tolist()
        ]
        if radius < 1.0:
            assert max(final) < 1.0
        else:
            assert max(final) > 1.0
        if ext.k == 0:
            g0 = float(gain_schedule(0, ext.theta, n)[0])
            assert radius == abs(1.0 - ext.a_coeffs[0] / n - g0)
            if ext.a_coeffs == (0.0,):
                assert (radius < 1.0) == (ext.theta < 2.0 * n ** (2.0 / 3.0))

    def test_rejects_what_gain_schedule_rejects(self):
        with pytest.raises(ValueError, match="sample size"):
            step_spectral_radius(ExtendedParams(0, 1.0), 1)


class TestSolverErrorType:
    def test_residual_norm_is_reported(self):
        err = SolverError("iteration stalled", residual_norm=2.5e-7)
        assert "2.5" in str(err)
        assert err.residual_norm == 2.5e-7
