"""Gain design tests: Riccati solutions, gain schedules, stability checks.

Oracles: the closed-form first-column table for small orders, scipy's
general-purpose continuous Riccati solver on the equivalent standard-form
problem, a hand-written residual evaluation, and explicit quadratic /
polynomial-division root computations.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_continuous_are

from voltrack import (
    MAX_ORDER,
    SolverError,
    gain_schedule,
    solve_care,
    stability_report,
)

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
            sol = solve_care(k)
            assert_allclose(sol.first_column, expected, rtol=0.0, atol=1e-9)

    def test_residual_is_small_for_all_orders(self):
        for k in range(MAX_ORDER + 1):
            sol = solve_care(k)
            res = riccati_residual_oracle(sol.u_matrix)
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
            assert_allclose(solve_care(k).u_matrix, expected, rtol=1e-8, atol=1e-10)

    def test_solution_is_symmetric_positive_definite(self):
        for k in range(MAX_ORDER + 1):
            u = solve_care(k).u_matrix
            assert np.array_equal(u, u.T)
            assert np.all(np.linalg.eigvalsh(u) > 0.0)

    def test_order_zero_is_exactly_one(self):
        sol = solve_care(0)
        assert sol.first_column[0] == 1.0
        assert sol.u_matrix[0, 0] == 1.0

    def test_first_column_equals_u_matrix_column(self):
        for k in range(MAX_ORDER + 1):
            sol = solve_care(k)
            assert np.array_equal(sol.first_column, sol.u_matrix[:, 0])

    def test_results_are_cached_and_immutable(self):
        sol = solve_care(2)
        assert solve_care(2) is sol
        with pytest.raises(ValueError):
            sol.u_matrix[0, 0] = 0.0

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError):
            solve_care(-1)
        with pytest.raises(ValueError):
            solve_care(MAX_ORDER + 1)


class TestGainSchedule:
    def test_order_zero_gain_is_linear_in_theta(self):
        sched = gain_schedule(0, 4.0, 1000)
        assert sched.step_gains.shape == (1,)
        assert sched.step_gains[0] == 4.0 / 1000 ** (2 / 3)

    def test_order_one_leading_gain(self):
        # sqrt(2 theta) / n^{4/5} at theta = 1
        for n in (500, 4000):
            sched = gain_schedule(1, 1.0, n)
            assert_allclose(
                sched.step_gains[0], math.sqrt(2.0) / n**0.8, rtol=1e-14
            )

    def test_monotone_in_theta_and_n(self):
        for k in (0, 1, 3):
            lo_theta = gain_schedule(k, 0.5, 1000).step_gains
            hi_theta = gain_schedule(k, 2.0, 1000).step_gains
            assert np.all(hi_theta > lo_theta)
            big_n = gain_schedule(k, 0.5, 4000).step_gains
            assert np.all(big_n < lo_theta)

    def test_last_gain_scale_identity(self):
        # step_gains[k] * n^{(k+2)/(2k+3)} recovers U_0k * theta
        for k in range(5):
            for theta in (0.25, 1.0, 7.5):
                n = 3000
                sched = gain_schedule(k, theta, n)
                lhs = sched.step_gains[k] * n ** ((k + 2) / (2 * k + 3))
                rhs = solve_care(k).first_column[k] * theta
                assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gain_schedule(0, 0.0, 1000)
        with pytest.raises(ValueError):
            gain_schedule(0, -1.0, 1000)
        with pytest.raises(ValueError):
            gain_schedule(0, 1.0, 1)


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


class TestSolverErrorType:
    def test_residual_norm_is_reported(self):
        err = SolverError("iteration stalled", residual_norm=2.5e-7)
        assert "2.5" in str(err)
        assert err.residual_norm == 2.5e-7
