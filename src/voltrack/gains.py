"""Steady-state gain design for the order-k tracking filters.

The filter state holds the volatility level and its first k
pseudo-derivatives.  In the continuous-time limit the optimal gains come
from the positive-definite solution U of an algebraic Riccati equation
for a chain of k+1 integrators observed through the first coordinate,
with driving noise entering the last coordinate:

    a U + U a' + B B' - U A'A U = 0,

where a is the upper shift matrix, A selects the first coordinate and B
is the last standard basis column.  solve_care returns U itself, cached
and read-only.  Only its first column U[:, 0] matters downstream, and
callers read it in place: scaled by powers of the adaptation parameter
theta and the sample size n it becomes gain_schedule, the per-step gain
of each filter equation, and rescaled by theta alone it gives the
coefficients of the closed-loop characteristic polynomial whose root
locations certify stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError

__all__ = [
    "MAX_ORDER",
    "StabilityReport",
    "solve_care",
    "gain_schedule",
    "stability_report",
]

MAX_ORDER = 8

_RESIDUAL_TOL = 1e-9
_DISTINCT_RTOL = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    """Root locations of the closed-loop characteristic polynomial."""

    roots: np.ndarray
    all_negative_real: bool
    all_distinct: bool
    min_real_gap_to_zero: float
    min_pairwise_distance: float


def _closed_form_column(k: int) -> np.ndarray:
    """First column of U in closed form: the coefficients of the Butterworth
    polynomial of order k+1, prod_{i=1..j+1} cos((i-1) gamma) / sin(i gamma)
    for entry j, with gamma = pi / (2k + 2)."""
    gamma = math.pi / (2 * k + 2)
    ratios = [math.cos((i - 1) * gamma) / math.sin(i * gamma) for i in range(1, k + 2)]
    return np.cumprod(ratios)


def _shift_matrix(m: int) -> np.ndarray:
    return np.eye(m, k=1)


def _noise_matrix(m: int) -> np.ndarray:
    bbt = np.zeros((m, m))
    bbt[m - 1, m - 1] = 1.0
    return bbt


def _solve_lyapunov(f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve F U + U F' + C = 0 for symmetric U by a dense Kronecker solve.

    The systems here are at most 9x9, so the O(m^6) cost is irrelevant and
    the plain LAPACK solve keeps the iteration fully deterministic.
    """
    m = f.shape[0]
    eye = np.eye(m)
    lhs = np.kron(eye, f) + np.kron(f, eye)
    u = np.linalg.solve(lhs, -c.ravel(order="F")).reshape((m, m), order="F")
    return 0.5 * (u + u.T)


def _lyapunov_at_gain(k: int, gain: np.ndarray) -> np.ndarray:
    """One policy-evaluation step: the U induced by a fixed stabilizing gain."""
    m = k + 1
    f = _shift_matrix(m)
    f[:, 0] -= gain
    return _solve_lyapunov(f, _noise_matrix(m) + np.outer(gain, gain))


def _riccati_residual(k: int, u: np.ndarray) -> np.ndarray:
    m = k + 1
    a = _shift_matrix(m)
    first = u[:, 0]
    return a @ u + u @ a.T + _noise_matrix(m) - np.outer(first, first)


def _newton_solve(k: int) -> np.ndarray:
    # Start from the gains of (lambda + 1)^(k+1): binomial coefficients give
    # a stabilizing closed loop for every k, which the iteration needs.
    m = k + 1
    gain = np.array([float(math.comb(m, j + 1)) for j in range(m)])
    u = _lyapunov_at_gain(k, gain)
    for _ in range(100):
        u_next = _lyapunov_at_gain(k, u[:, 0])
        step = np.max(np.abs(u_next - u))
        u = u_next
        if step <= 1e-12 * max(1.0, np.max(np.abs(u))):
            break
    return u


@lru_cache(maxsize=None)
def solve_care(k: int) -> np.ndarray:
    """Solve the gain Riccati equation for smoothness order k (0..8).

    Returns the positive-definite (k+1)x(k+1) solution U, cached and
    read-only; its first column U[:, 0] holds the gains.
    """
    if k < 0 or k > MAX_ORDER:
        raise ValueError(f"smoothness order k must be in 0..{MAX_ORDER}, got {k}")
    k = int(k)
    u = _newton_solve(k)
    residual = float(np.linalg.norm(_riccati_residual(k, u)))
    if residual > _RESIDUAL_TOL:
        raise SolverError(
            f"Riccati iteration did not converge for k={k}", residual_norm=residual
        )
    try:
        np.linalg.cholesky(u)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"Riccati solution not positive definite for k={k}",
            residual_norm=residual,
        ) from exc
    # Newton and the residual read the same matrices, so an error in the
    # equation itself passes both; the closed form shares none of them.
    if float(np.max(np.abs(u[:, 0] - _closed_form_column(k)))) > _RESIDUAL_TOL:
        raise SolverError(
            f"Riccati solution disagrees with the closed form for k={k}",
            residual_norm=residual,
        )
    u.setflags(write=False)
    return u


def gain_schedule(k: int, theta: float, n: int) -> np.ndarray:
    """Scale the Riccati first column into per-step gains for a run of n.

    Returns the k+1 gains, read-only: gain j is
    U_0j * theta^((j+1)/(k+1)) / n^((2(k+1)-j)/(2k+3)).
    """
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if n < 2:
        raise ValueError(f"sample size n must be at least 2, got {n}")
    u = solve_care(k)
    m = k + 1
    denom = 2 * k + 3
    gains = np.empty(m)
    for j in range(m):
        gains[j] = u[j, 0] * theta ** ((j + 1) / m) / n ** ((2 * m - j) / denom)
    gains.setflags(write=False)
    return gains


def stability_report(k: int, theta: float) -> StabilityReport:
    """Locate the roots of the closed-loop polynomial at adaptation theta.

    The polynomial is lambda^(k+1) + q_0 lambda^k + ... + q_k with
    q_j = U_0j * theta^((j+1)/(k+1)); roots come from the companion-matrix
    eigenvalues.  The filter needs all real parts negative and all roots
    pairwise distinct.
    """
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    u = solve_care(k)
    m = k + 1
    coeffs = np.concatenate(
        ([1.0], [u[j, 0] * theta ** ((j + 1) / m) for j in range(m)])
    )
    roots = np.roots(coeffs)
    roots = roots[np.lexsort((roots.imag, roots.real))]
    all_negative = bool(np.all(roots.real < 0.0))
    gap = float(-np.max(roots.real))
    if m == 1:
        min_pair = math.inf
        distinct = True
    else:
        pair = [abs(roots[i] - roots[j]) for i in range(m) for j in range(i + 1, m)]
        min_pair = float(min(pair))
        distinct = min_pair > _DISTINCT_RTOL * float(np.max(np.abs(roots)))
    roots.setflags(write=False)
    return StabilityReport(
        roots=roots,
        all_negative_real=all_negative,
        all_distinct=distinct,
        min_real_gap_to_zero=gap,
        min_pairwise_distance=min_pair,
    )
