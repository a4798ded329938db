"""Experiment harness tests: metrics, studies, benchmark table, result files.

Oracles: hand-computable burn-in indices and mean squared errors, a
direct recomputation of the rank correlation with scipy, and the exact
bytes the CLI writes for small hand-built results.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from voltrack import (
    BENCH_METHODS,
    ConvergenceResult,
    DataError,
    FuncSpec,
    OrderingResult,
    Scenario,
    benchmark_report,
    burn_in_index,
    cli,
    convergence_experiment,
    format_scenario_config,
    main,
    ordering_agreement,
    shift_sensitivity,
    vn_metric,
)
from voltrack.evaluation import _kendall_tau_b

SINU = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("sinusoid", (0.09, 0.04, 2.0, 0.3)),
)

# Volatility so large over so short a horizon that the tuned pure filter
# overflows on the path of seed 3.
OVERFLOWING = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("constant", (8e152,)),
    horizon_t=1e-155,
)


class TestBurnInIndex:
    def test_reference_values(self):
        # 1000^(2/3) = 100; 16000^(2/3) = 634.96...; 8^(2/3) = 4 but the
        # n//4 cap bites first.
        assert burn_in_index(1000, 0) == 100
        assert burn_in_index(16000, 0) == 635
        assert burn_in_index(8, 0) == 2

    def test_higher_order_uses_larger_layer(self):
        assert burn_in_index(10_000, 1) > burn_in_index(10_000, 0)

    def test_cap_keeps_evaluation_window(self):
        for n in (10, 100, 1000):
            assert burn_in_index(n, 4) <= n // 4

    def test_validation(self):
        with pytest.raises(ValueError):
            burn_in_index(1, 0)
        with pytest.raises(ValueError):
            burn_in_index(100, -1)


class TestVnMetric:
    def test_identical_sequences_give_zero(self):
        v = np.linspace(0.05, 0.1, 50)
        assert vn_metric(v, v, 10) == 0.0

    def test_constant_offset(self):
        # dyadic values keep the offset and its square exact
        v = np.full(40, 0.125)
        assert vn_metric(v, v + 0.25, 0) == 0.0625

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        v, e = rng.random(100), rng.random(100)
        burn = 17
        expected = float(np.mean((v[burn:] - e[burn:]) ** 2))
        assert_allclose(vn_metric(v, e, burn), expected, rtol=1e-12)

    def test_burn_in_discards_head(self):
        v = np.full(30, 0.09)
        e = v.copy()
        e[:5] = 100.0
        assert vn_metric(v, e, 5) == 0.0
        assert vn_metric(v, e, 4) > 0.0

    def test_validation(self):
        v = np.full(30, 0.09)
        with pytest.raises(ValueError):
            vn_metric(v, v[:-1], 0)
        with pytest.raises(ValueError):
            vn_metric(v, v, 30)
        with pytest.raises(ValueError):
            vn_metric(v, v, -1)


class TestConvergenceExperiment:
    def test_small_study_decays(self):
        result = convergence_experiment(SINU, 0, (400, 1200, 4000), seeds=10)
        assert result.n_values == (400, 1200, 4000)
        assert result.seeds_per_n == 10
        assert result.mse_values[0] > result.mse_values[1] > result.mse_values[2]
        assert result.fitted_slope < -0.4
        assert result.theoretical_slope == -2.0 / 3.0

    def test_theoretical_slope_formula(self):
        result = convergence_experiment(SINU, 1, (400, 1200, 4000), seeds=10)
        assert result.theoretical_slope == -0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_experiment(SINU, 0, (400, 1200), seeds=10)
        with pytest.raises(ValueError):
            convergence_experiment(SINU, 0, (400, 1200, 3000), seeds=10)
        with pytest.raises(ValueError):
            convergence_experiment(SINU, 0, (400, 1200, 4000), seeds=5)

    def test_non_positive_mean_loss_refused_before_the_fit(self, monkeypatch):
        monkeypatch.setattr("voltrack.evaluation.vn_metric", lambda *args: 0.0)
        with pytest.raises(ValueError, match="^mse_values must be positive and finite$"):
            convergence_experiment(SINU, 0, (100, 400, 1000), seeds=10)


@pytest.mark.parametrize(
    "study",
    [
        lambda: convergence_experiment(OVERFLOWING, 0, (100, 400, 1600), seeds=10),
        lambda: ordering_agreement(OVERFLOWING, np.linspace(0.1, 1.0, 10), n=100, seeds=10),
        lambda: shift_sensitivity(OVERFLOWING, 0, 100, 10),
    ],
    ids=["convergence", "ordering", "shift"],
)
def test_overflowing_run_refused_naming_theta_and_seed(study):
    # a diverging run raises DataError without an overflow warning, which
    # the suite turns into an error
    with pytest.raises(
        DataError,
        match=r"^the order-0 filter diverges at theta = \S+ on the path of seed 3$",
    ):
        study()


class TestOrderingAgreement:
    def test_small_study(self):
        grid = np.logspace(-1, 1.2, 12)
        result = ordering_agreement(SINU, grid, n=1000, seeds=10)
        assert result.kendall_tau >= 0.7
        assert result.argmin_match
        # tau and the argmin flag must be exactly what the sequences say
        recomputed = float(stats.kendalltau(result.sn_values, result.vn_values).statistic)
        assert result.kendall_tau == recomputed
        assert result.argmin_match == (
            int(np.argmin(result.sn_values)) == int(np.argmin(result.vn_values))
        )

    def test_diverging_theta_raises_naming_it(self):
        # the pure k=0 filter is stable only for theta < 2 n^(2/3), 50 at n = 125;
        # theta = 55 still gives finite losses but is refused before any run
        grid = (1, 2, 3, 5, 8, 13, 21, 34, 55, 1000)
        with pytest.raises(DataError, match=r"diverges at theta = 55\.0 for n = 125: "):
            ordering_agreement(SINU, grid, n=125, seeds=10)

    def test_theta_on_the_stability_boundary_is_refused_before_any_run(self, monkeypatch):
        # theta = 2 n^(2/3) = 50 at n = 125 gives a radius a rounding above 1;
        # no path is sampled and no filter run
        def forbidden(*args):
            raise AssertionError("ran before refusing")

        monkeypatch.setattr("voltrack.evaluation.sample_paths", forbidden)
        monkeypatch.setattr("voltrack.evaluation.run", forbidden)
        grid = (1, 2, 3, 5, 8, 13, 21, 34, 50, 55)
        with pytest.raises(DataError, match=r"diverges at theta = 50\.0 for n = 125: "):
            ordering_agreement(SINU, grid, n=125, seeds=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ordering_agreement(SINU, (0.1, 0.2), n=500, seeds=10)
        with pytest.raises(ValueError):
            ordering_agreement(SINU, np.logspace(-1, 1, 12)[::-1], n=500, seeds=10)
        with pytest.raises(ValueError):
            ordering_agreement(SINU, np.logspace(-1, 1, 12), n=500, seeds=3)


# Few distinct values, so that ties in x, in y and in both are common.
_TAU_VALUES = st.sampled_from([-2.5, -1.0, 0.0, 0.3, 0.3000000000000001, 1.0, 7.0, 1e300])


class TestKendallTauB:
    @settings(max_examples=300)
    @given(st.integers(2, 40).flatmap(
        lambda m: st.tuples(
            st.lists(_TAU_VALUES, min_size=m, max_size=m),
            st.lists(st.floats(-1e3, 1e3) | _TAU_VALUES, min_size=m, max_size=m),
        )
    ))
    def test_equals_scipy_bit_for_bit(self, pair):
        xs, ys = pair
        expected = float(stats.kendalltau(xs, ys).statistic)
        got = _kendall_tau_b(xs, ys)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("m", [2, 3, 20, 40])
    def test_all_tied_is_nan(self, m):
        ramp = [float(i) for i in range(m)]
        assert math.isnan(_kendall_tau_b([0.5] * m, ramp))
        assert math.isnan(_kendall_tau_b(ramp, [0.5] * m))
        assert _kendall_tau_b(ramp, ramp) == 1.0
        assert _kendall_tau_b(ramp, ramp[::-1]) == -1.0


class TestShiftSensitivity:
    def test_small_and_non_negative(self):
        value = shift_sensitivity(SINU, 0, 500, 3)
        assert 0.0 <= value < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            shift_sensitivity(SINU, 0, 500, 0)

    @pytest.mark.parametrize("k", [-1, 9])
    def test_bad_order_refused_before_sampling(self, monkeypatch, k):
        def forbidden(*args):
            raise AssertionError("sampled before refusing k")

        monkeypatch.setattr("voltrack.evaluation.sample_paths", forbidden)
        with pytest.raises(ValueError, match=r"^smoothness order k must be in 0\.\.8$"):
            shift_sensitivity(SINU, k, 500, 3)


class TestBenchmarkReport:
    def test_all_methods_on_synthetic_series(self):
        rng = np.random.default_rng(5)
        xs = np.abs(rng.normal(0.09, 0.03, size=150))
        report = benchmark_report({"synthetic": xs})
        assert list(report) == ["synthetic"]
        cells = report["synthetic"]
        assert tuple(cells) == BENCH_METHODS
        assert all(c is not None and c >= 0.0 for c in cells.values())
        # the staged level filter starts from the pure filter's solution
        assert cells["filter1"] <= cells["filter0"] + 1e-12

    def test_failed_fits_leave_their_cells_empty(self):
        # squares near 1e310 overflow every run of every method; the
        # warnings filter of this suite would fail the test on any warning
        xs = 1e155 * np.random.default_rng(3).chisquare(1, 150)
        assert benchmark_report({"big": xs}) == {
            "big": dict.fromkeys(BENCH_METHODS, None)
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            benchmark_report({})
        with pytest.raises(ValueError):
            benchmark_report({"short": np.full(50, 0.1)})
        with pytest.raises(ValueError):
            benchmark_report({"flat": np.full((150, 2), 0.1)})


CONV = ConvergenceResult(
    n_values=(100, 400, 1600),
    mse_values=(0.5, 0.25, 0.125),
    fitted_slope=-0.5,
    theoretical_slope=-2 / 3,
    seeds_per_n=10,
)

ORDER = OrderingResult(
    theta_grid=(0.5, 1.0, 2.0),
    sn_values=(0.25, 0.125, 0.5),
    vn_values=(0.025, 0.0125, 0.05),
    kendall_tau=1.0,
    argmin_match=True,
)

BENCH = {
    "alpha": dict(zip(BENCH_METHODS, (0.25, 0.375, 0.125, 0.0625, 1.5))),
    "beta": dict(zip(BENCH_METHODS, (None, 0.75, 0.5, 2.0, None))),
}


def cli_files(monkeypatch, tmp_path, binding, result, argv):
    """The files `voltrack argv` writes in tmp_path when the experiment
    that voltrack.cli binds as `binding` returns result."""
    monkeypatch.setattr(cli, binding, lambda *args, **kwargs: result)
    monkeypatch.delenv("VOLTRACK_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    Path("scenario.cfg").write_text(format_scenario_config(SINU))
    Path("alpha.csv").write_text("price\n1.0\n1.5\n")
    Path("beta.csv").write_text("price\n2.0\n1.5\n1.75\n")
    assert main(argv) == 0
    return {path.name: path.read_text() for path in tmp_path.iterdir()}


def envelope(kind, **items):
    return json.dumps({"schema_version": 1, "kind": kind, **items}, indent=2) + "\n"


CONV_ARGV = [
    "convergence", "--scenario", "scenario.cfg", "--n", "100,400,1600",
    "--out", "conv.csv", "--json-out", "conv.json", "--plot-out", "conv.txt",
]
ORDER_ARGV = [
    "ordering", "--scenario", "scenario.cfg", "--theta-grid", "0.5,1,2", "--n", "100",
    "--out", "ord.csv", "--json-out", "ord.json",
]
BENCH_ARGV = ["bench", "--input", "alpha.csv", "beta.csv", "--out", "bench.csv"]


class TestSerializers:
    """The files the CLI writes for the hand-built results above, byte for byte."""

    def test_convergence_csv(self, monkeypatch, tmp_path):
        files = cli_files(monkeypatch, tmp_path, "convergence_experiment", CONV, CONV_ARGV)
        assert files["conv.csv"] == "n,mse\n100,0.5\n400,0.25\n1600,0.125\n"

    def test_convergence_plot_two_columns(self, monkeypatch, tmp_path):
        files = cli_files(monkeypatch, tmp_path, "convergence_experiment", CONV, CONV_ARGV)
        lines = files["conv.txt"].strip().split("\n")
        assert len(lines) == 3
        for (n, mse), line in zip(zip(CONV.n_values, CONV.mse_values), lines):
            a, b = line.split(" ")
            assert float(a) == math.log(n)
            assert float(b) == math.log(mse)
            # math.log, not np.log: the bytes are those of the Python float
            assert line == f"{math.log(n)!r} {math.log(mse)!r}"

    def test_convergence_json(self, monkeypatch, tmp_path):
        files = cli_files(monkeypatch, tmp_path, "convergence_experiment", CONV, CONV_ARGV)
        assert files["conv.json"] == envelope(
            "convergence",
            n_values=[100, 400, 1600],
            mse_values=[0.5, 0.25, 0.125],
            fitted_slope=-0.5,
            theoretical_slope=-2 / 3,
            seeds_per_n=10,
        )

    def test_ordering_csv(self, monkeypatch, tmp_path):
        files = cli_files(monkeypatch, tmp_path, "ordering_agreement", ORDER, ORDER_ARGV)
        assert files["ord.csv"] == (
            "theta,sn,vn\n0.5,0.25,0.025\n1.0,0.125,0.0125\n2.0,0.5,0.05\n"
        )

    def test_ordering_json(self, monkeypatch, tmp_path):
        files = cli_files(monkeypatch, tmp_path, "ordering_agreement", ORDER, ORDER_ARGV)
        assert files["ord.json"] == envelope(
            "ordering",
            theta_grid=[0.5, 1.0, 2.0],
            sn_values=[0.25, 0.125, 0.5],
            vn_values=[0.025, 0.0125, 0.05],
            kendall_tau=1.0,
            argmin_match=True,
        )

    def test_bench_csv_blank_for_missing(self, monkeypatch, tmp_path):
        files = cli_files(monkeypatch, tmp_path, "benchmark_report", BENCH, BENCH_ARGV)
        assert files["bench.csv"] == (
            "series,method,sn\n"
            "alpha,garch11,0.25\n"
            "alpha,garch22,0.375\n"
            "alpha,filter0,0.125\n"
            "alpha,filter1,0.0625\n"
            "alpha,filter2,1.5\n"
            "beta,garch11,\n"
            "beta,garch22,0.75\n"
            "beta,filter0,0.5\n"
            "beta,filter1,2.0\n"
            "beta,filter2,\n"
        )

    def test_bench_json_null_for_missing(self, monkeypatch, tmp_path):
        files = cli_files(monkeypatch, tmp_path, "benchmark_report", BENCH, BENCH_ARGV)
        assert files["bench.json"] == envelope(
            "bench",
            columns=["garch11", "garch22", "filter0", "filter1", "filter2"],
            rows=[
                # n is the length of the observation series: one fewer than the prices
                {"name": "alpha", "n": 1, "cells": {
                    "garch11": 0.25, "garch22": 0.375, "filter0": 0.125,
                    "filter1": 0.0625, "filter2": 1.5,
                }},
                {"name": "beta", "n": 2, "cells": {
                    "garch11": None, "garch22": 0.75, "filter0": 0.5,
                    "filter1": 2.0, "filter2": None,
                }},
            ],
            delta=1 / 252,
        )
