"""Command-line interface tests: loaders, config validation, subcommands.

Oracles: hand-written CSV fixtures with known defects at known line
numbers, byte comparison of repeated runs, and cross-checks of written
files against the in-memory API on the same inputs.
"""

import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltrack import (
    DataError,
    ExtendedParams,
    FuncSpec,
    GarchParams,
    Scenario,
    compute_heteroscedasticity,
    generate_path,
    load_prices,
    main,
    path_csv_text,
)
from voltrack.cli import DEFAULT_DELTA, PriceSeries, RunConfig, build_parser
from voltrack.evaluation import BENCH_METHODS, METHODS

SCENARIO_TEXT = """\
# sinusoidal volatility around a constant drift
T = 1.0
s0 = 1.0
mu.kind = constant
mu.params = 0.05
v.kind = sinusoid
v.params = 0.09, 0.04, 2.0, 0.3
"""


def write_scenario(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO_TEXT)
    return str(path)


def write_prices(tmp_path, name="prices.csv", count=60, two_column=False, seed=9):
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0002, 0.012, size=count)))
    path = tmp_path / name
    lines = ["date,adjclose"] if two_column else ["price"]
    for i, p in enumerate(prices):
        value = repr(float(p))
        lines.append(f"2024-01-{i % 28 + 1:02d},{value}" if two_column else value)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadPrices:
    @settings(max_examples=30)
    @given(
        st.integers(2, 400),
        st.integers(0, 2**32 - 1),
        st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    )
    def test_path_csv_gives_back_the_prices(self, n, seed, horizon):
        # simulate output doubles as a price CSV: the price column round-trips
        scen = Scenario(
            mu_spec=FuncSpec("constant", (0.05,)),
            v_spec=FuncSpec("sinusoid", (0.1, 0.05, 1.0, 0.0)),
            horizon_t=horizon,
        )
        path = generate_path(scen, n, seed)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp, "path.csv")
            csv_path.write_text(path_csv_text(path))
            series = load_prices(csv_path, path.delta)
        assert series.prices.tobytes() == np.asarray(path.prices, dtype=float).tobytes()

    def test_single_column(self, tmp_path):
        path = write_prices(tmp_path)
        series = load_prices(path, DEFAULT_DELTA)
        assert series.prices.size == 60
        assert series.prices[0] == float(Path(path).read_text().split()[1])
        assert series.delta == DEFAULT_DELTA

    def test_two_column_with_labels(self, tmp_path):
        # the date labels are skipped: same prices as the single-column file
        series = load_prices(write_prices(tmp_path, two_column=True), DEFAULT_DELTA)
        bare = load_prices(write_prices(tmp_path, name="bare.csv"), DEFAULT_DELTA)
        assert series.prices.tolist() == bare.prices.tolist()

    def test_price_column_found_by_header(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("date,volume,Close\n2024-01-01,100,50.0\n2024-01-02,90,51.5\n")
        series = load_prices(str(path), DEFAULT_DELTA)
        assert series.prices.tolist() == [50.0, 51.5]

    def test_fallback_to_second_column(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("date,value,extra\n2024-01-01,50.0,1\n2024-01-02,51.5,2\n")
        series = load_prices(str(path), DEFAULT_DELTA)
        assert series.prices.tolist() == [50.0, 51.5]

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfprice\n50.0\n51.5\n")
        series = load_prices(str(path), DEFAULT_DELTA)
        assert series.prices.tolist() == [50.0, 51.5]

    def test_numeric_first_row_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("50.0\n51.5\n")
        with pytest.raises(DataError, match="header row required"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_non_positive_price_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["price"] + ["50.0"] * 5 + ["0.0"] + ["50.0"] * 3
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="line 7"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_unparseable_price_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("price\n50.0\nn/a\n51.0\n")
        with pytest.raises(DataError, match="line 3: bad price"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("date,price\n2024-01-01,50.0\n2024-01-02\n")
        with pytest.raises(DataError, match="expected 2 columns"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("price\n100\n\n101\n-5\n")
        with pytest.raises(DataError, match="line 5: non-positive price -5"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_ragged_row_after_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("day,price\n1,100\n\n2,101\n3\n")
        with pytest.raises(DataError, match="line 5: expected 2 columns"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_too_few_prices_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("price\n50.0\n")
        with pytest.raises(DataError, match="at least 2"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_prices(str(path), DEFAULT_DELTA)

    def test_bad_delta_rejected(self, tmp_path):
        path = write_prices(tmp_path)
        with pytest.raises(ValueError):
            load_prices(path, 0.0)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_prices(str(tmp_path / "nope.csv"), DEFAULT_DELTA)


class TestPriceSeries:
    def test_validation(self):
        good = np.array([50.0, 51.0])
        PriceSeries(prices=good, delta=DEFAULT_DELTA)
        with pytest.raises(ValueError):
            PriceSeries(prices=np.array([50.0]), delta=DEFAULT_DELTA)
        with pytest.raises(ValueError):
            PriceSeries(prices=np.array([50.0, -1.0]), delta=DEFAULT_DELTA)
        with pytest.raises(ValueError):
            PriceSeries(prices=good, delta=0.0)


class TestRunConfig:
    def test_tune_and_explicit_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            RunConfig(kind="filter0", tune=True, theta=0.5)
        with pytest.raises(ValueError, match="either"):
            RunConfig(kind="filter0")

    def test_garch_requirements(self):
        cfg = RunConfig(kind="garch11", level=0.01, g_coeffs=(0.8,), a_coeffs=(0.1,))
        par = cfg.explicit_params()
        assert isinstance(par, GarchParams) and par.p == 1
        with pytest.raises(ValueError, match="--level"):
            RunConfig(kind="garch11", g_coeffs=(0.8,), a_coeffs=(0.1,))
        with pytest.raises(ValueError, match="--g with 2"):
            RunConfig(kind="garch22", level=0.01, g_coeffs=(0.8,), a_coeffs=(0.1, 0.0))
        with pytest.raises(ValueError, match="--theta does not apply"):
            RunConfig(kind="garch11", theta=0.5, level=0.01, g_coeffs=(0.8,), a_coeffs=(0.1,))

    def test_filter0_takes_only_theta(self):
        cfg = RunConfig(kind="filter0", theta=0.5)
        par = cfg.explicit_params()
        assert isinstance(par, ExtendedParams)
        assert par.k == 0 and par.a_coeffs == (0.0,) and par.k_level == 0.0
        with pytest.raises(ValueError, match="only --theta"):
            RunConfig(kind="filter0", theta=0.5, level=0.01)

    def test_filter1_and_filter2_requirements(self):
        cfg = RunConfig(kind="filter1", theta=0.5, a_coeffs=(2.0,), level=0.09)
        assert cfg.explicit_params().k == 0
        cfg = RunConfig(kind="filter2", theta=0.5, a_coeffs=(2.0, 1.0), level=0.09)
        assert cfg.explicit_params().k == 1
        with pytest.raises(ValueError, match="--a with 1"):
            RunConfig(kind="filter1", theta=0.5, a_coeffs=(2.0, 1.0), level=0.09)
        with pytest.raises(ValueError, match="--a with 2"):
            RunConfig(kind="filter2", theta=0.5, a_coeffs=(2.0,), level=0.09)
        with pytest.raises(ValueError, match="requires --theta"):
            RunConfig(kind="filter1", a_coeffs=(2.0,), level=0.09)
        with pytest.raises(ValueError, match="--g does not apply"):
            RunConfig(kind="filter1", theta=0.5, a_coeffs=(2.0,), level=0.09, g_coeffs=(0.5,))

    def test_adaptive_k_requirements(self):
        cfg = RunConfig(kind="adaptive-k", k=2, theta=0.5)
        par = cfg.explicit_params()
        assert par.k == 2 and par.a_coeffs == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="requires --k"):
            RunConfig(kind="adaptive-k", theta=0.5)
        with pytest.raises(ValueError, match="does not apply"):
            RunConfig(kind="filter0", k=1, theta=0.5)
        with pytest.raises(ValueError, match="k\\+1=3"):
            RunConfig(kind="adaptive-k", k=2, theta=0.5, a_coeffs=(1.0,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown filter kind"):
            RunConfig(kind="kalman", theta=0.5)


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys):
        assert main(["no-such-command"]) == 2
        assert main(["track"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "track" in capsys.readouterr().out

    def test_name_option_is_gone(self, tmp_path, capsys):
        path = write_prices(tmp_path)
        code = main(
            [
                "track",
                "--input", path,
                "--name", "x",
                "--filter", "filter0",
                "--theta", "0.5",
                "--out", str(tmp_path / "est.csv"),
            ]
        )
        assert code == 2
        assert "--name" in capsys.readouterr().err
        assert not (tmp_path / "est.csv").exists()

    def test_data_errors_exit_one(self, tmp_path, capsys):
        code = main(
            [
                "track",
                "--input", str(tmp_path / "missing.csv"),
                "--filter", "filter0",
                "--theta", "0.5",
                "--out", str(tmp_path / "est.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_conflicting_flags_exit_one(self, tmp_path, capsys):
        path = write_prices(tmp_path)
        code = main(
            [
                "track",
                "--input", path,
                "--filter", "filter0",
                "--tune",
                "--theta", "0.5",
                "--out", str(tmp_path / "est.csv"),
            ]
        )
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_input_and_scenario_exclusive(self, tmp_path, capsys):
        path = write_prices(tmp_path)
        scenario = write_scenario(tmp_path)
        code = main(
            [
                "track",
                "--input", path,
                "--scenario", scenario,
                "--n", "100",
                "--filter", "filter0",
                "--theta", "0.5",
                "--out", str(tmp_path / "est.csv"),
            ]
        )
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "tune"])
    @pytest.mark.parametrize("flag", ["--n", "--seed"])
    def test_scenario_flags_rejected_with_input(self, command, flag, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                command,
                "--input", write_prices(tmp_path),
                flag, "10",
                "--filter", "filter0",
                *(["--theta", "0.5"] if command == "track" else []),
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} does not apply to --input\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "tune"])
    def test_delta_rejected_with_scenario(self, command, tmp_path, capsys):
        # a simulated path has its own interval T/n; --delta would be ignored
        out = tmp_path / "out"
        code = main(
            [
                command,
                "--scenario", write_scenario(tmp_path),
                "--n", "300",
                "--delta", "0.5",
                "--filter", "filter0",
                *(["--theta", "1"] if command == "track" else []),
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --delta does not apply to --scenario\n"
        assert not out.exists()


class TestTrack:
    def test_explicit_filter_on_prices(self, tmp_path, capsys):
        path = write_prices(tmp_path)
        out = tmp_path / "est.csv"
        code = main(
            [
                "track",
                "--input", path,
                "--filter", "filter0",
                "--theta", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("s_n = ")
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,x,v_hat,residual"
        series = load_prices(path, DEFAULT_DELTA)
        xs = compute_heteroscedasticity(series.prices, DEFAULT_DELTA)
        assert len(lines) == xs.size + 1
        # written observations reproduce the in-memory series exactly
        for i, line in enumerate(lines[1:]):
            idx, x, v_hat, residual = line.split(",")
            assert int(idx) == i
            assert float(x) == xs[i]
            assert float(residual) == float(x) - float(v_hat)

    def test_tuned_filter_on_scenario(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "est.csv"
        code = main(
            [
                "track",
                "--scenario", scenario,
                "--n", "200",
                "--seed", "1",
                "--filter", "filter0",
                "--tune",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 201
        capsys.readouterr()

    def test_scenario_requires_n(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(
            [
                "track",
                "--scenario", scenario,
                "--filter", "filter0",
                "--theta", "0.5",
                "--out", str(tmp_path / "est.csv"),
            ]
        )
        assert code == 1
        assert "--n" in capsys.readouterr().err

    def test_garch_explicit(self, tmp_path, capsys):
        path = write_prices(tmp_path)
        out = tmp_path / "est.csv"
        code = main(
            [
                "track",
                "--input", path,
                "--filter", "garch11",
                "--level", "0.001",
                "--g", "0.8",
                "--a", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        capsys.readouterr()


class TestTune:
    def test_filter1_report_json(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "tune",
                "--scenario", scenario,
                "--n", "200",
                "--filter", "filter1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("best_sn = ")
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "tuning"
        assert doc["filter"] == "filter1"
        assert doc["best_params"]["kind"] == "extended"
        assert [s["name"] for s in doc["trace"]] == ["theta", "K", "a1", "polish"]
        assert doc["evaluations"]
        assert doc["best_sn"] == min(e["sn"] for e in doc["evaluations"])

    def test_overflowing_series_exits_one(self, tmp_path, capsys):
        # delta = 1e-300 scales the squared returns near 1e296, so every run
        # overflows: a tuning error, not a report of a diverged filter
        path = write_prices(tmp_path, count=80)
        out = tmp_path / "report.json"
        for kind in ("filter0", "filter1", "garch11"):
            code = main(
                [
                    "tune",
                    "--input", path,
                    "--delta", "1e-300",
                    "--filter", kind,
                    "--out", str(out),
                ]
            )
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_garch_report_json(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "tune",
                "--scenario", scenario,
                "--n", "150",
                "--filter", "garch11",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["best_params"]["kind"] == "garch"
        assert doc["best_params"]["p"] == 1
        capsys.readouterr()

    def test_adaptive_k_requires_k(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(
            [
                "tune",
                "--scenario", scenario,
                "--n", "150",
                "--filter", "adaptive-k",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "--k" in capsys.readouterr().err


    def test_k_rejected_for_other_kinds(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(
            [
                "tune",
                "--scenario", scenario,
                "--n", "150",
                "--filter", "filter0",
                "--k", "3",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --k does not apply to filter0\n"


def filter_choices(command):
    subcommands = build_parser()._subparsers._group_actions[0].choices
    return next(a.choices for a in subcommands[command]._actions if a.dest == "filter")


class TestMethodTable:
    @pytest.mark.parametrize("kind", METHODS)
    def test_cli_derives_from_table(self, kind, tmp_path, capsys):
        assert filter_choices("track") == filter_choices("tune") == tuple(METHODS)
        assert BENCH_METHODS == ("garch11", "garch22", "filter0", "filter1", "filter2")
        if kind not in ("filter0", "filter1", "adaptive-k"):
            return  # GARCH fits and filter2's grid are too slow to tune twice here
        source = [
            "--scenario", write_scenario(tmp_path),
            "--n", "200",
            "--seed", "3",
            "--filter", kind,
            *(["--k", "1"] if kind == "adaptive-k" else []),
        ]
        assert main(["track", *source, "--tune", "--out", str(tmp_path / "e.csv")]) == 0
        s_n = capsys.readouterr().out.strip().removeprefix("s_n = ")
        assert main(["tune", *source, "--out", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().out == f"best_sn = {s_n}\n"


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        for out in (out_a, out_b):
            assert main(
                ["simulate", "--scenario", scenario, "--n", "300", "--seed", "7",
                 "--out", str(out)]
            ) == 0
        assert main(
            ["simulate", "--scenario", scenario, "--n", "300", "--seed", "8",
             "--out", str(out_c)]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() != out_c.read_bytes()
        printed = capsys.readouterr().out
        assert "delta = " in printed

    def test_output_mode_follows_umask(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "path.csv"
        old_umask = os.umask(0o022)
        try:
            code = main(
                ["simulate", "--scenario", scenario, "--n", "50", "--out", str(out)]
            )
        finally:
            os.umask(old_umask)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        capsys.readouterr()

    def test_track_consumes_simulated_csv_exactly(self, tmp_path, capsys):
        # The path CSV doubles as a price CSV (price in column two), and
        # shortest-repr formatting makes the round trip exact.
        scenario = write_scenario(tmp_path)
        sim_out = tmp_path / "path.csv"
        n = 300
        assert main(
            ["simulate", "--scenario", scenario, "--n", str(n), "--seed", "7",
             "--out", str(sim_out)]
        ) == 0
        est_out = tmp_path / "est.csv"
        assert main(
            [
                "track",
                "--input", str(sim_out),
                "--delta", repr(1.0 / n),
                "--filter", "filter0",
                "--theta", "0.5",
                "--out", str(est_out),
            ]
        ) == 0
        sim_lines = sim_out.read_text().strip().split("\n")[2:]
        est_lines = est_out.read_text().strip().split("\n")[1:]
        assert len(sim_lines) == len(est_lines) == n
        for sim_line, est_line in zip(sim_lines, est_lines):
            x_sim = float(sim_line.split(",")[2])
            x_est = float(est_line.split(",")[1])
            assert x_sim == x_est
        capsys.readouterr()


class TestBench:
    def test_csv_and_json_outputs(self, tmp_path, capsys):
        path = write_prices(tmp_path, count=120)
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--input", path, path, "--delta", "0.004", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "series,method,sn"
        # two inputs with the same stem get distinct row names
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"prices", "prices-2"}
        methods = [line.split(",")[1] for line in lines[1:6]]
        assert methods == ["garch11", "garch22", "filter0", "filter1", "filter2"]
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["delta"] == 0.004
        assert {row["name"] for row in doc["rows"]} == {"prices", "prices-2"}
        capsys.readouterr()

    def test_default_delta(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        path = write_prices(tmp_path, count=120)
        assert main(["bench", "--input", path, "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["delta"] == DEFAULT_DELTA
        capsys.readouterr()

    def test_default_json_out_on_out_exits_one(self, tmp_path, capsys):
        # --out b.json makes the default --json-out b.json as well
        path = write_prices(tmp_path, count=120)
        out = tmp_path / "b.json"
        assert main(["bench", "--input", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out and --json-out both name ")
        assert err.count("\n") == 1
        assert not out.exists()


def assert_refused_collision(tmp_path, capsys, code, flags):
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {flags[0]} and {flags[1]} both name {tmp_path / 'x.csv'}\n"
    assert sorted(os.listdir(tmp_path)) == ["scenario.cfg"]


class TestOutputOnInput:
    # An output that names an input file is refused before the input is
    # read, so the input is left as it was.
    @pytest.mark.parametrize(
        "argv",
        [
            ["track", "--filter", "filter0", "--theta", "1"],
            ["tune", "--filter", "filter0"],
            ["bench"],
        ],
        ids=["track", "tune", "bench"],
    )
    def test_out_on_price_input_exits_one(self, tmp_path, capsys, argv):
        path = write_prices(tmp_path, count=120)
        before = Path(path).read_bytes()
        code = main([*argv, "--input", path, "--out", path])
        assert code == 1
        assert capsys.readouterr().err == f"error: --input and --out both name {path}\n"
        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["prices.csv"]

    def test_bench_json_out_on_second_input_exits_one(self, tmp_path, capsys):
        first = write_prices(tmp_path, name="a.csv", count=120)
        second = write_prices(tmp_path, name="b.csv", count=120)
        code = main(
            ["bench", "--input", first, second, "--out", str(tmp_path / "o.csv"),
             "--json-out", second]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --input and --json-out both name {second}\n"
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--n", "50"], "--out"),
            (["track", "--n", "300", "--filter", "filter0", "--theta", "1"], "--out"),
            (["convergence", "--n", "400,1200", "--seeds", "2"], "--out"),
            (["ordering", "--theta-grid", "0.5,1", "--n", "500", "--seeds", "2"],
             "--json-out"),
        ],
        ids=["simulate", "track", "convergence", "ordering"],
    )
    def test_out_on_scenario_exits_one(self, tmp_path, capsys, argv, flag):
        scenario = write_scenario(tmp_path)
        outs = {"--out": str(tmp_path / "o.csv"), flag: scenario}
        code = main([*argv, "--scenario", scenario, *(a for o in outs.items() for a in o)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --scenario and {flag} both name {scenario}\n"
        assert Path(scenario).read_text() == SCENARIO_TEXT
        assert os.listdir(tmp_path) == ["scenario.cfg"]

    def test_redirected_out_may_share_an_input_name(self, tmp_path, monkeypatch, capsys):
        # a bare --out lands in $VOLTRACK_OUT_DIR, not on the input it names
        out_dir = tmp_path / "outputs"
        out_dir.mkdir()
        monkeypatch.setenv("VOLTRACK_OUT_DIR", str(out_dir))
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path)
        assert main(
            ["simulate", "--scenario", "scenario.cfg", "--n", "50", "--out", "scenario.cfg"]
        ) == 0
        assert (tmp_path / "scenario.cfg").read_text() == SCENARIO_TEXT
        assert (out_dir / "scenario.cfg").read_text().startswith("t,price,")
        capsys.readouterr()


class TestConvergence:
    def test_csv_json_and_plot(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "conv.csv"
        json_out = tmp_path / "conv.json"
        plot_out = tmp_path / "conv.txt"
        code = main(
            [
                "convergence",
                "--scenario", scenario,
                "--n", "400,1200,4000",
                "--seeds", "10",
                "--out", str(out),
                "--json-out", str(json_out),
                "--plot-out", str(plot_out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("fitted slope = ")
        assert "(theoretical " in printed
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,mse"
        assert [line.split(",")[0] for line in lines[1:]] == ["400", "1200", "4000"]
        doc = json.loads(json_out.read_text())
        assert doc["kind"] == "convergence"
        assert len(plot_out.read_text().strip().split("\n")) == 3

    def test_plot_out_on_out_exits_one(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = str(tmp_path / "x.csv")
        code = main(
            ["convergence", "--scenario", scenario, "--n", "400,1200", "--seeds", "2",
             "--out", out, "--plot-out", out]
        )
        assert_refused_collision(tmp_path, capsys, code, ("--out", "--plot-out"))


class TestOrdering:
    def test_csv_and_json(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "ord.csv"
        json_out = tmp_path / "ord.json"
        grid = ",".join(repr(float(t)) for t in np.logspace(-1, 1.2, 12))
        code = main(
            [
                "ordering",
                "--scenario", scenario,
                "--theta-grid", grid,
                "--n", "500",
                "--seeds", "10",
                "--out", str(out),
                "--json-out", str(json_out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("kendall tau = ")
        assert "argmin match = " in printed
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,sn,vn"
        assert len(lines) == 13
        doc = json.loads(json_out.read_text())
        assert doc["kind"] == "ordering"

    def test_bad_theta_grid_is_usage_error(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(
            [
                "ordering",
                "--scenario", scenario,
                "--theta-grid", "0.1,zap",
                "--n", "500",
                "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_json_out_on_redirected_out_exits_one(self, tmp_path, monkeypatch, capsys):
        # a bare --out lands in $VOLTRACK_OUT_DIR, where --json-out names it too
        monkeypatch.setenv("VOLTRACK_OUT_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        scenario = write_scenario(tmp_path)
        code = main(
            ["ordering", "--scenario", scenario, "--theta-grid", "0.5,1", "--n", "500",
             "--seeds", "2", "--out", "x.csv", "--json-out", str(tmp_path / "x.csv")]
        )
        assert_refused_collision(tmp_path, capsys, code, ("--out", "--json-out"))


class TestOutDirRedirect:
    def test_bare_names_go_to_env_dir(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "outputs"
        out_dir.mkdir()
        monkeypatch.setenv("VOLTRACK_OUT_DIR", str(out_dir))
        monkeypatch.chdir(tmp_path)
        scenario = write_scenario(tmp_path)
        assert main(
            ["simulate", "--scenario", scenario, "--n", "100", "--seed", "0",
             "--out", "bare.csv"]
        ) == 0
        assert (out_dir / "bare.csv").exists()
        # explicit directories are left alone
        assert main(
            ["simulate", "--scenario", scenario, "--n", "100", "--seed", "0",
             "--out", str(tmp_path / "kept.csv")]
        ) == 0
        assert (tmp_path / "kept.csv").exists()
        assert not (out_dir / "kept.csv").exists()
        capsys.readouterr()


class TestModuleEntry:
    def test_python_m_voltrack_runs_from_a_checkout(self):
        # `python -m voltrack` must work without an install and without the
        # RuntimeWarning that `python -m voltrack.cli` triggers.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "voltrack", "--help"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("usage: voltrack")


def readme_commands() -> list[str]:
    """Every `voltrack ...` command in the README's sh blocks, with
    backslash continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("voltrack "):
                commands.append(line)
    return commands


class TestReadmeCommands:
    def test_every_documented_command_parses(self):
        commands = readme_commands()
        parser = build_parser()
        for command in commands:
            argv = shlex.split(command, comments=True)[1:]
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")
        documented = {shlex.split(command)[1] for command in commands}
        assert documented == {"track", "tune", "simulate", "bench", "convergence", "ordering"}
