"""End-to-end acceptance checks, one test per release criterion.

Each test asserts both the substantive property and its runtime budget,
so a slow environment fails loudly instead of silently degrading the
suite.  Oracles are independent re-implementations written inline: the
closed-form gain table, naive step-by-step filter loops, the Gaussian
noise moments of the observation model, and byte-level file comparison.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from voltrack import (
    ExtendedParams,
    FilterState,
    FuncSpec,
    GarchParams,
    Scenario,
    convergence_experiment,
    decomposition_diagnostics,
    fit_garch,
    gain_schedule,
    generate_path,
    main,
    ordering_agreement,
    run,
    sample_paths,
    shift_sensitivity,
    solve_care,
    stability_report,
    step_adaptive,
    step_garch,
    tune_filter0,
    tune_filter1,
)
from voltrack.filters import _warmup_count

# Constant-volatility and smooth sinusoid scenarios used throughout.
CONST = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("constant", (0.09,)),
)
SMOOTH = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("sinusoid", (0.1, 0.05, 1.0, 0.0)),
)

CLOSED_FORM_FIRST_COLUMNS = {
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


def test_riccati_first_columns_match_closed_forms():
    start = time.monotonic()
    for k, expected in CLOSED_FORM_FIRST_COLUMNS.items():
        assert_allclose(solve_care(k)[:, 0], expected, atol=1e-9, rtol=0)
    assert time.monotonic() - start < 1.0


def test_gain_polynomials_stable_across_orders_and_thetas():
    start = time.monotonic()
    for k in range(5):
        for theta in (0.01, 0.1, 1.0, 10.0, 100.0):
            report = stability_report(k, theta)
            assert report.all_negative_real
            assert report.all_distinct
    assert time.monotonic() - start < 1.0


def test_oracle_loss_decays_at_design_rate():
    start = time.monotonic()
    sizes = (1000, 4000, 16000)
    for k, target in ((0, -2.0 / 3.0), (1, -4.0 / 5.0)):
        result = convergence_experiment(SMOOTH, k, sizes, seeds=20)
        assert result.theoretical_slope == target
        assert abs(result.fitted_slope - target) <= 0.25, (
            f"k={k}: fitted {result.fitted_slope} vs {target}"
        )
    assert time.monotonic() - start < 120.0


def test_observable_ordering_tracks_oracle_ordering():
    start = time.monotonic()
    grid = np.logspace(-1.0, 1.5, 20)
    matches = 0
    for replication in range(10):
        result = ordering_agreement(
            SMOOTH, grid, n=4000, seeds=20, base_seed=1000 * replication
        )
        assert result.kendall_tau >= 0.7, (
            f"replication {replication}: tau {result.kendall_tau}"
        )
        matches += int(result.argmin_match)
    assert matches >= 8, f"argmin agreement {matches}/10"
    assert time.monotonic() - start < 120.0


def test_level_filter_forms_reduce_bit_for_bit():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    n = 2000
    g0 = float(gain_schedule(0, 0.8, n)[0])
    g1 = [float(t) for t in gain_schedule(1, 0.8, n)]

    for _ in range(1000):
        v = float(rng.uniform(0.01, 0.5))
        x = float(rng.uniform(0.0, 0.5))

        # one-coefficient level form vs the general order-0 step
        a1 = float(rng.uniform(0.0, 50.0))
        level = float(rng.uniform(0.0, 0.5))
        ext = ExtendedParams(k=0, theta=0.8, a_coeffs=(a1,), k_level=level)
        st, _ = step_adaptive(FilterState(v_hat=v), x, ext, n)
        direct = (1.0 - a1 / n - g0) * v
        direct += (a1 / n) * level
        direct += g0 * x
        assert st.v_hat == direct

        # pure order-1 innovation recursion vs the general step
        d = float(rng.uniform(-0.2, 0.2))
        ext1 = ExtendedParams(k=1, theta=0.8, a_coeffs=(0.0, 0.0), k_level=0.0)
        st1, _ = step_adaptive(FilterState(v_hat=v, derivatives=(d,)), x, ext1, n)
        res = x - v
        new_v = v + d / n + g1[0] * res
        new_d = d * (1.0 - 0.0 / n)
        new_d -= (0.0 / n) * v
        new_d += (0.0 / n) * 0.0
        new_d += g1[1] * res
        assert st1.v_hat == new_v
        assert st1.derivatives[0] == new_d

        # zero-relaxation level filter vs its GARCH(1,1) twin
        extp = ExtendedParams(k=0, theta=0.8, a_coeffs=(0.0,), k_level=0.0)
        twin = GarchParams(p=1, q=1, k_const=0.0, g_coeffs=(1.0 - g0,), a_coeffs=(g0,))
        st_p, res_p = step_adaptive(FilterState(v_hat=v), x, extp, n)
        est_g, res_g = step_garch(([v], []), x, twin)
        assert st_p.v_hat == est_g
        assert res_p == res_g
    assert time.monotonic() - start < 1.0


def _naive_adaptive(xs, ext):
    """Plain re-rolled loop for the order-k recursion, numpy-vector style."""
    n = xs.size
    gains = np.asarray(gain_schedule(ext.k, ext.theta, n))
    a = np.asarray(ext.a_coeffs)
    state = np.zeros(ext.k + 1)
    state[0] = float(np.mean(xs[: _warmup_count(n)]))
    estimates = np.empty(n)
    for i, x in enumerate(xs):
        estimates[i] = state[0]
        res = x - state[0]
        new = np.empty_like(state)
        for j in range(ext.k):
            new[j] = state[j] + state[j + 1] / n + gains[j] * res
        last = state[ext.k] * (1.0 - a[0] / n)
        for ell in range(2, ext.k + 2):
            last -= (a[ell - 1] / n) * state[ext.k + 1 - ell]
        last += (a[ext.k] / n) * ext.k_level
        last += gains[ext.k] * res
        if ext.k == 0:
            # degenerate single-equation case: recompute in level form
            last = (1.0 - a[0] / n - gains[0]) * state[0]
            last += (a[0] / n) * ext.k_level
            last += gains[0] * x
        new[ext.k] = last
        state = new
    return estimates


def _naive_garch(xs, par):
    v0 = float(xs[0])
    est = [v0] * par.p
    obs = [v0] * (par.q - 1)
    estimates = np.empty(xs.size)
    for i, x in enumerate(xs):
        estimates[i] = est[-1]
        acc = par.k_const
        for j in range(1, par.p + 1):
            acc = acc + par.g_coeffs[j - 1] * est[-j]
        acc = acc + par.a_coeffs[0] * x
        for m in range(2, par.q + 1):
            acc = acc + par.a_coeffs[m - 1] * obs[-(m - 1)]
        est.append(max(acc, 0.0))
        obs.append(x)
    return estimates


def test_run_matches_naive_reference_loops():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    xs = np.abs(rng.normal(0.09, 0.03, size=500))
    cases = [
        ExtendedParams(k=0, theta=0.8, a_coeffs=(0.0,), k_level=0.0),
        ExtendedParams(k=0, theta=0.8, a_coeffs=(2.0,), k_level=0.09),
        ExtendedParams(k=1, theta=0.8, a_coeffs=(2.0, 1.0), k_level=0.09),
        ExtendedParams(k=2, theta=0.8, a_coeffs=(3.0, 3.0, 1.0), k_level=0.09),
        GarchParams(p=1, q=1, k_const=0.004, g_coeffs=(0.6,), a_coeffs=(0.3,)),
        GarchParams(p=2, q=2, k_const=0.004, g_coeffs=(0.55, 0.2), a_coeffs=(0.12, 0.08)),
    ]
    for params in cases:
        result = run(xs, params)
        if isinstance(params, ExtendedParams):
            reference = _naive_adaptive(xs, params)
        else:
            reference = _naive_garch(xs, params)
        assert_allclose(result.estimates, reference, rtol=1e-12, atol=1e-12)
    assert time.monotonic() - start < 1.0


def test_observation_noise_moments_match_model():
    start = time.monotonic()
    path = generate_path(CONST, 1_000_000, seed=2024)
    dec = decomposition_diagnostics(path)
    eta = dec.eta
    n = eta.size

    mean = float(np.mean(eta))
    se_mean = float(np.std(eta, ddof=1)) / math.sqrt(n)
    assert abs(mean) < 3.0 * se_mean, f"mean {mean} vs SE {se_mean}"

    sample_var = float(np.var(eta, ddof=1))
    model_var = float(dec.sigma_sq[0])
    centered = eta - mean
    fourth = float(np.mean(centered**4))
    se_var = math.sqrt((fourth - sample_var**2) / n)
    assert abs(sample_var - model_var) < 3.0 * se_var, (
        f"variance {sample_var} vs {model_var} (SE {se_var})"
    )

    lag1 = float(np.corrcoef(eta[:-1], eta[1:])[0, 1])
    se_lag = 1.0 / math.sqrt(n)
    assert abs(lag1) < 3.0 * se_lag, f"lag-1 correlation {lag1}"
    assert time.monotonic() - start < 30.0


def test_staged_tuning_nests_and_polish_is_modest():
    start = time.monotonic()
    suite = {
        "flat": CONST,
        "smooth": SMOOTH,
        "trend": Scenario(
            mu_spec=FuncSpec("constant", (0.05,)),
            v_spec=FuncSpec("linear", (0.05, 0.04)),
        ),
        "switch": Scenario(
            mu_spec=FuncSpec("constant", (0.05,)),
            v_spec=FuncSpec("regime_switch", levels=(0.05, 0.15), breakpoints=(0.5,)),
        ),
    }
    for name, scenario in suite.items():
        xs = generate_path(scenario, 500, seed=31).xs
        staged = tune_filter1(xs)
        pure = tune_filter0(xs)
        assert staged.best_sn <= pure.best_sn, f"{name}: staged search regressed"

    # polish gains stay modest on the level-anchored scenario
    improvements = []
    for seed in range(10):
        xs = generate_path(CONST, 500, seed=seed).xs
        report = tune_filter1(xs)
        sn1 = report.trace[0].sn
        sn4 = report.trace[-1].sn
        improvements.append((sn1 - sn4) / sn1)
    mean_improvement = float(np.mean(improvements))
    assert 0.0 <= mean_improvement <= 0.15, f"polish changed S_n by {mean_improvement}"
    assert time.monotonic() - start < 120.0


def test_tuning_the_pure_filter_takes_fewer_runs_than_fitting_garch():
    # The paper's third claim, that tuning the filter is faster than
    # fitting GARCH, in evaluation counts, which no host can move: on
    # every path, tuning theta makes fewer runs than fitting GARCH(1,1).
    regime = Scenario(
        mu_spec=FuncSpec("constant", (0.05,)),
        v_spec=FuncSpec(
            "regime_switch", levels=(0.05, 0.2, 0.1), breakpoints=(0.3337, 0.6671)
        ),
    )
    counts = {}
    seeds = range(100, 120)
    for name, scenario in (("sinusoid", SMOOTH), ("regime", regime)):
        for n in (1000, 4000):
            for seed, path in zip(seeds, sample_paths(scenario, n, seeds)):
                counts[name, n, seed] = (
                    len(tune_filter0(path.xs).evaluations),
                    len(fit_garch(path.xs, 1, 1).evaluations),
                )
    slower = {key: c for key, c in counts.items() if not c[0] < c[1]}
    assert len(counts) == 80 and not slower, slower


def test_drift_shift_influence_vanishes_with_sample_size():
    start = time.monotonic()
    small = shift_sensitivity(CONST, 0, 1000, seeds=20)
    large = shift_sensitivity(CONST, 0, 16000, seeds=20)
    assert small > large >= 0.0, f"relative change {small} -> {large}"
    assert time.monotonic() - start < 60.0


def test_cli_pipeline_reproduces_and_is_deterministic(tmp_path, capsys):
    start = time.monotonic()
    scenario_file = tmp_path / "scenario.cfg"
    scenario_file.write_text(
        "T = 1.0\ns0 = 1.0\n"
        "mu.kind = constant\nmu.params = 0.05\n"
        "v.kind = sinusoid\nv.params = 0.1, 0.05, 1.0, 0.0\n"
    )
    n, seed, theta = 500, 7, 0.5

    sim_a, sim_b = tmp_path / "path-a.csv", tmp_path / "path-b.csv"
    for out in (sim_a, sim_b):
        assert main(
            ["simulate", "--scenario", str(scenario_file), "--n", str(n),
             "--seed", str(seed), "--out", str(out)]
        ) == 0
    assert sim_a.read_bytes() == sim_b.read_bytes()

    est_a, est_b = tmp_path / "est-a.csv", tmp_path / "est-b.csv"
    for sim, est in ((sim_a, est_a), (sim_b, est_b)):
        assert main(
            ["track", "--input", str(sim), "--delta", repr(1.0 / n),
             "--filter", "filter0", "--theta", repr(theta), "--out", str(est)]
        ) == 0
    assert est_a.read_bytes() == est_b.read_bytes()

    # the written pipeline reproduces the in-memory computation exactly
    path = generate_path(SMOOTH, n, seed)
    params = ExtendedParams(k=0, theta=theta, a_coeffs=(0.0,), k_level=0.0)
    result = run(path.xs, params)
    rows = est_a.read_text().strip().split("\n")[1:]
    assert len(rows) == n
    for i, row in enumerate(rows):
        _, x, v_hat, residual = row.split(",")
        assert float(x) == path.xs[i]
        assert float(v_hat) == result.estimates[i]
        assert float(residual) == result.residuals[i]
    capsys.readouterr()
    assert time.monotonic() - start < 10.0
