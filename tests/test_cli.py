"""Command-line interface tests: loaders, config validation, subcommands.

Oracles: hand-written CSV fixtures with known defects at known line
numbers, byte comparison of repeated runs, and cross-checks of written
files against the in-memory API on the same inputs.
"""

import contextlib
import csv
import io
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
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voltrack.cli as cli
from voltrack import (
    DataError,
    ExtendedParams,
    FuncSpec,
    GarchParams,
    Scenario,
    ScenarioError,
    compute_heteroscedasticity,
    generate_path,
    load_prices,
    main,
    parse_scenario_config,
    path_csv_text,
    run,
)
from voltrack.cli import DEFAULT_DELTA, PriceSeries, build_parser
from voltrack.evaluation import BENCH_METHODS, METHODS
from voltrack.ioutil import float_repr

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

    def test_path_csv_is_read_by_the_compiled_parser(self, tmp_path, monkeypatch):
        # the streaming reader never runs on a simulate path CSV, so guards
        # that always fell back would fail here rather than go unseen
        def refuse(path, reader):
            raise AssertionError("the streaming reader ran")

        monkeypatch.setattr(cli, "_read_price_rows", refuse)
        path = generate_path(parse_scenario_config(SCENARIO_TEXT), 1000, 4)
        csv_path = tmp_path / "path.csv"
        csv_path.write_text(path_csv_text(path))
        assert csv_path.stat().st_size >= cli._LOADTXT_MIN_BYTES
        series = load_prices(csv_path, path.delta)
        assert series.prices.tobytes() == path.prices.tobytes()
        assert not series.prices.flags.writeable

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

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\x80price\n50.0\n51.5\n", "invalid start byte"),
            # far past the first block the reader decodes
            (b"price\n" + b"50.0\n" * 5000 + b"5\xe91.5\n", "invalid continuation byte"),
        ],
        ids=["first byte", "past the first block"],
    )
    def test_non_utf8_file_named_in_the_error(self, tmp_path, data, reason):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(DataError) as info:
            load_prices(str(path), DEFAULT_DELTA)
        assert str(info.value) == f"{path}: not UTF-8 text: {reason}"


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
    """track's filter flags, checked through main against evaluation.METHODS.

    A refused flag set exits 1 with one error line and writes nothing.  An
    accepted one prints the s_n of run on the parameters the flags name.
    """

    def track(self, tmp_path, flags):
        prices = write_prices(tmp_path)
        out = tmp_path / "est.csv"
        out.unlink(missing_ok=True)
        code = main(["track", "--input", prices, *flags.split(), "--out", str(out)])
        return code, out, prices

    def assert_refused(self, tmp_path, capsys, flags, message):
        code, out, _ = self.track(tmp_path, flags)
        assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))
        assert not out.exists()

    def assert_runs(self, tmp_path, capsys, flags, params):
        code, out, prices = self.track(tmp_path, flags)
        series = load_prices(prices, DEFAULT_DELTA)
        s_n = run(compute_heteroscedasticity(series.prices, series.delta), params).s_n
        assert (code, capsys.readouterr().out) == (0, f"s_n = {float_repr(s_n)}\n")
        assert out.exists()

    def test_tune_and_explicit_exclusive(self, tmp_path, capsys):
        self.assert_refused(
            tmp_path,
            capsys,
            "--filter filter0 --tune --theta 0.5",
            "give either --tune or explicit parameters, not both",
        )
        self.assert_refused(
            tmp_path,
            capsys,
            "--filter filter0",
            "give either --tune or explicit parameters",
        )

    def test_garch_requirements(self, tmp_path, capsys):
        self.assert_runs(
            tmp_path,
            capsys,
            "--filter garch11 --level 0.01 --g 0.8 --a 0.1",
            GarchParams(1, 1, 0.01, (0.8,), (0.1,)),
        )
        for flags, message in [
            ("--filter garch11 --g 0.8 --a 0.1", "garch11 requires --level"),
            (
                "--filter garch22 --level 0.01 --g 0.8 --a 0.1,0.0",
                "garch22 requires --g with 2 value(s)",
            ),
            (
                "--filter garch11 --theta 0.5 --level 0.01 --g 0.8 --a 0.1",
                "--theta does not apply to garch11; it takes only --level, --g, --a",
            ),
        ]:
            self.assert_refused(tmp_path, capsys, flags, message)

    def test_filter0_takes_only_theta(self, tmp_path, capsys):
        self.assert_runs(
            tmp_path,
            capsys,
            "--filter filter0 --theta 0.5",
            ExtendedParams(k=0, theta=0.5, a_coeffs=(0.0,), k_level=0.0),
        )
        self.assert_refused(
            tmp_path,
            capsys,
            "--filter filter0 --theta 0.5 --level 0.01",
            "--level does not apply to filter0; it takes only --theta",
        )

    def test_filter1_and_filter2_requirements(self, tmp_path, capsys):
        self.assert_runs(
            tmp_path,
            capsys,
            "--filter filter1 --theta 0.5 --a 2.0 --level 0.09",
            ExtendedParams(k=0, theta=0.5, a_coeffs=(2.0,), k_level=0.09),
        )
        self.assert_runs(
            tmp_path,
            capsys,
            "--filter filter2 --theta 0.5 --a 2.0,1.0 --level 0.09",
            ExtendedParams(k=1, theta=0.5, a_coeffs=(2.0, 1.0), k_level=0.09),
        )
        for flags, message in [
            (
                "--filter filter1 --theta 0.5 --a 2.0,1.0 --level 0.09",
                "filter1 requires --a with 1 value(s)",
            ),
            (
                "--filter filter2 --theta 0.5 --a 2.0 --level 0.09",
                "filter2 requires --a with 2 value(s)",
            ),
            ("--filter filter1 --a 2.0 --level 0.09", "filter1 requires --theta"),
            (
                "--filter filter1 --theta 0.5 --a 2.0 --level 0.09 --g 0.5",
                "--g does not apply to filter1; it takes only --theta, --a, --level",
            ),
        ]:
            self.assert_refused(tmp_path, capsys, flags, message)

    def test_adaptive_k_requirements(self, tmp_path, capsys):
        self.assert_runs(
            tmp_path,
            capsys,
            "--filter adaptive-k --k 2 --theta 0.5",
            ExtendedParams(k=2, theta=0.5, a_coeffs=(0.0, 0.0, 0.0), k_level=0.0),
        )
        for flags, message in [
            ("--filter adaptive-k --theta 0.5", "adaptive-k requires --k"),
            ("--filter filter0 --k 1 --theta 0.5", "--k does not apply to filter0"),
            (
                "--filter adaptive-k --k 2 --theta 0.5 --a 1.0",
                "a_coeffs must have length k+1=3, got 1",
            ),
        ]:
            self.assert_refused(tmp_path, capsys, flags, message)

    def test_unknown_kind(self, tmp_path, capsys):
        # argparse's --filter choices refuse it before any command runs
        code, out, _ = self.track(tmp_path, "--filter kalman --theta 0.5")
        assert code == 2
        assert "invalid choice: 'kalman'" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--n", "100,400,1600"],
            ["ordering", "--n", "125", "--theta-grid", ",".join(map(str, range(1, 11)))],
        ],
        ids=["convergence", "ordering"],
    )
    def test_burn_in_scale_option_is_gone(self, tmp_path, capsys, argv):
        # the burn-in window is burn_in_index(n, k); no flag scales it
        out = tmp_path / "out.csv"
        scenario = write_scenario(tmp_path)
        code = main([*argv, "--scenario", scenario, "--burn-c", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --burn-c 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["9", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--n", "100,400,1600", "--seeds", "10"],
            ["ordering", "--n", "125", "--theta-grid", ",".join(map(str, range(1, 11))),
             "--seeds", "10"],
        ],
        ids=["convergence", "ordering"],
    )
    def test_bad_k_is_one_error_line_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                     argv, k):
        def forbidden(*args):
            raise AssertionError("sampled before refusing k")

        monkeypatch.setattr("voltrack.evaluation.sample_paths", forbidden)
        out = tmp_path / "out.csv"
        code = main([*argv, "--scenario", write_scenario(tmp_path), "--k", k, "--out", str(out)])
        assert (code, capsys.readouterr()) == (
            1,
            ("", "error: smoothness order k must be in 0..8\n"),
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["track", "--filter", "filter0", "--theta", "0.5"],
        ["tune", "--filter", "filter0"],
    ], ids=["track", "tune"])
    @pytest.mark.parametrize("head, delta", [
        ((1e-300, 1e300), "0.004"),  # the price ratio overflows
        ((1e300, 1e-300), "0.004"),  # the ratio underflows to 0, its log is -inf
        ((1.0, 1.1), "5e-324"),  # the scaling by 1/delta overflows
    ], ids=["ratio-overflow", "ratio-underflow", "tiny-delta"])
    def test_out_of_range_observation_is_one_error_line(self, tmp_path, command, head, delta):
        # the observation leaves the float range without a NumPy warning, and
        # the filter refuses it by its index
        prices = [*head, *(head[-1] * 1.01**i for i in range(1, 59))]
        path, out = tmp_path / "p.csv", tmp_path / "out.csv"
        path.write_text("price\n" + "".join(f"{p!r}\n" for p in prices))
        argv = [*command, "--input", str(path), "--delta", delta, "--out", str(out)]
        assert quiet_main(argv) == (1, "", "error: non-finite observation at index 0\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("old, new, message", [
        ("T = 1.0", "T = abc", "bad value for T: 'abc'"),
        ("v.kind = sinusoid\nv.params = 0.09, 0.04, 2.0, 0.3",
         "v.kind = sum\nv.terms = x", "bad term count for v.terms: 'x'"),
        ("v.kind = sinusoid", "v.kind = foo", "unknown spec kind 'foo' for v"),
    ], ids=["value", "term-count", "kind"])
    def test_bad_scenario_config_is_one_error_line(self, tmp_path, old, new, message):
        path, out = tmp_path / "s.cfg", tmp_path / "out.csv"
        path.write_text(SCENARIO_TEXT.replace(old, new))
        argv = ["simulate", "--scenario", str(path), "--n", "100", "--out", str(out)]
        assert quiet_main(argv) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_overlong_csv_field_is_one_error_line(self, tmp_path):
        # csv refuses a field past its default limit of 131072 characters
        path, out = tmp_path / "p.csv", tmp_path / "out.csv"
        path.write_text("price\n" + "1" * 131073 + "\n2.0\n")
        argv = ["track", "--input", str(path), "--filter", "filter0", "--theta", "1",
                "--out", str(out)]
        assert quiet_main(argv) == (
            1, "", f"error: {path}: malformed CSV: field larger than field limit (131072)\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv, data, reason",
        [
            ("track --filter filter0 --theta 0.5 --input", b"\x80price\n50.0\n51.5\n",
             "invalid start byte"),
            ("simulate --n 10 --scenario", SCENARIO_TEXT.encode().replace(b"sinus", b"r\xe9gime"),
             "invalid continuation byte"),
        ],
        ids=["track", "simulate"],
    )
    def test_non_utf8_input_named_in_the_error(self, tmp_path, capsys, argv, data, reason):
        path, out = tmp_path / "latin1", tmp_path / "out.csv"
        path.write_bytes(data)
        code = main([*argv.split(), str(path), "--out", str(out)])
        assert (code, capsys.readouterr()) == (
            1,
            ("", f"error: {path}: not UTF-8 text: {reason}\n"),
        )
        assert not out.exists()


class TestFlagsBeforeInput:
    """track and tune refuse their filter flags before they read or
    simulate the series, so a refused flag set costs nothing and its error
    is not hidden behind an input error."""

    @pytest.fixture(autouse=True)
    def series_never_loaded(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the series was loaded")

        monkeypatch.setattr(cli, "load_prices", refuse)
        monkeypatch.setattr(cli, "generate_path", refuse)

    @pytest.mark.parametrize("source", ["--input missing.csv", "--scenario missing.cfg --n 50000"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("track --filter filter0 --level 1",
             "--level does not apply to filter0; it takes only --theta"),
            ("track --filter filter0", "give either --tune or explicit parameters"),
            ("track --filter garch11 --g 0.8", "garch11 requires --level"),
            ("tune --filter filter0 --k 2", "--k does not apply to filter0"),
            ("tune --filter adaptive-k", "adaptive-k requires --k"),
            ("tune --filter adaptive-k --k -1", "smoothness order k must be in 0..8"),
            ("track --filter adaptive-k --k 9 --tune", "smoothness order k must be in 0..8"),
        ],
    )
    def test_refused_flags_win_over_a_missing_input(
        self, tmp_path, capsys, source, argv, message
    ):
        command, *flags = argv.split()
        flag, name, *rest = source.split()
        out = tmp_path / "out"
        code = main([command, flag, str(tmp_path / name), *rest, *flags, "--out", str(out)])
        assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))
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

    def test_level_of_n_or_more(self, tmp_path, capsys):
        # K is a volatility level, with the units of the series: no bound
        # compares it with the 59 observations
        path = write_prices(tmp_path)
        out = tmp_path / "est.csv"
        argv = ["track", "--input", path, "--filter", "filter1", "--theta", "1", "--a", "1"]
        for level in ("59", "1e6"):
            assert main([*argv, "--level", level, "--out", str(out)]) == 0
            assert capsys.readouterr().out.startswith("s_n = ")
            assert len(out.read_text().splitlines()) == 1 + 59


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

    def test_garch_fit_on_a_mostly_overflowing_grid_writes_finite_json(
        self, tmp_path, capsys
    ):
        # Prices that double each row at delta = 1e-200: only the grid
        # points with g1 + g2 just below one give a finite S_n.
        path = tmp_path / "doubling.csv"
        path.write_text("price\n" + "".join(f"{2.0**i!r}\n" for i in range(150)))
        out = tmp_path / "r.json"
        code = main(
            [
                "tune",
                "--input", str(path),
                "--delta", "1e-200",
                "--filter", "garch22",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "best_sn = 0.0\n"
        doc = json.loads(out.read_text())
        assert doc["best_sn"] == 0.0
        assert [s["sn"] for s in doc["trace"]] == [0.0, 0.0]

    def test_overflowing_residuals_are_not_called_divergence(self, tmp_path, capsys):
        # The filter is stable on these ordinary prices; only the squares
        # of residuals near 1e296 overflow, so the error names S_n.
        path = write_prices(tmp_path, count=201)
        out = tmp_path / "report.json"
        argv = ["tune", "--input", path, "--delta", "1e-300", "--filter", "filter0"]
        code = main([*argv, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no theta in [0.01, 1000.0] gives a finite S_n\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["filter1", "filter2"])
    def test_level_filters_on_a_mean_of_n_or_more(self, tmp_path, capsys, kind):
        # delta = 1e-6 puts the mean of X near 140, above n = 59; the level
        # stage starts K there and the fit reports a real run
        path = write_prices(tmp_path)
        xs = compute_heteroscedasticity(load_prices(path, 1e-6).prices, 1e-6)
        assert float(np.mean(xs)) >= xs.size == 59
        out = tmp_path / "report.json"
        code = main(["tune", "--input", path, "--delta", "1e-6", "--filter", kind,
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.startswith("best_sn = ")
        doc = json.loads(out.read_text())
        assert doc["trace"][1]["params"]["K"] == float(np.mean(xs))
        assert doc["best_sn"] == min(e["sn"] for e in doc["evaluations"])

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


def _extreme_floats():
    """Positive floats from the smallest subnormal to the largest double."""
    return st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@st.composite
def _extreme_spec(draw, prefix: str) -> str:
    """Config lines of a spec with extreme levels, amplitudes or slopes."""
    kind = draw(st.sampled_from(["constant", "linear", "sinusoid", "regime_switch"]))
    lines = [f"{prefix}.kind = {kind}"]
    if kind == "constant":
        params = [draw(_extreme_floats())]
    elif kind == "linear":
        params = [draw(_extreme_floats()), draw(_extreme_floats())]
    elif kind == "sinusoid":
        base = draw(_extreme_floats())
        amp = draw(st.one_of(_extreme_floats(), st.just(0.0))) * draw(st.sampled_from([1, -1]))
        params = [base, amp, draw(st.floats(0.0, 50.0)), draw(st.floats(-10.0, 10.0))]
    else:
        levels = draw(st.lists(_extreme_floats(), min_size=1, max_size=3))
        breaks = sorted(
            draw(st.lists(st.floats(0.0, 1.0), min_size=len(levels) - 1,
                          max_size=len(levels) - 1, unique=True))
        )
        lines.append(f"{prefix}.levels = " + ", ".join(map(repr, levels)))
        lines.append(f"{prefix}.breakpoints = " + ", ".join(map(repr, breaks)))
        return "\n".join(lines)
    lines.append(f"{prefix}.params = " + ", ".join(map(repr, params)))
    return "\n".join(lines)


@st.composite
def extreme_configs(draw) -> str:
    """Scenario config text with extreme s0, T, levels and amplitudes."""
    lines = [
        f"T = {draw(_extreme_floats())!r}",
        f"s0 = {draw(_extreme_floats())!r}",
        draw(_extreme_spec("mu")),
        draw(_extreme_spec("v")),
    ]
    return "\n".join(lines) + "\n"


def quiet_main(argv) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


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

    def test_negative_seed_named_in_the_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            ["simulate", "--scenario", write_scenario(tmp_path), "--n", "100",
             "--seed", "-1", "--out", str(out)]
        )
        assert (code, capsys.readouterr()) == (
            1,
            ("", "error: seed must be non-negative, got -1\n"),
        )
        assert not out.exists()

    def test_non_finite_breakpoint_exits_one(self, tmp_path, capsys):
        scenario = tmp_path / "switch.cfg"
        scenario.write_text(
            "mu.kind = constant\nmu.params = 0.05\nv.kind = regime_switch\n"
            "v.levels = 0.05, 0.2\nv.breakpoints = nan\n"
        )
        out = tmp_path / "path.csv"
        code = main(
            ["simulate", "--scenario", str(scenario), "--n", "10", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err
        assert not out.exists()

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

    @settings(max_examples=200)
    @given(extreme_configs(), st.integers(2, 300), st.integers(0, 2**32 - 1))
    def test_extreme_configs_exit_cleanly(self, config, n, seed):
        # a scenario that validates may still simulate prices beyond the
        # float range; that is one error line, never a traceback or warning
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp, "s.cfg"), Path(tmp, "path.csv")
            cfg.write_text(config)
            code, _, err = quiet_main(["simulate", "--scenario", str(cfg), "--n", str(n),
                                       "--seed", str(seed), "--out", str(out)])
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1
                assert not out.exists()
                return
            assert code == 0 and err == ""
            rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == n
        values = np.array([row[1:] for row in rows], dtype=float)
        assert np.all(np.isfinite(values))
        assert np.all(values[:, 0] > 0.0)


def _with_junk(text: st.SearchStrategy) -> st.SearchStrategy:
    """The text's UTF-8 bytes, sometimes with one stray byte put in at a
    drawn offset: a continuation byte, a lead byte or a byte UTF-8 never
    uses.  Any of them leaves the bytes invalid UTF-8."""
    junk = st.sampled_from([b"", b"", b"\x80", b"\xe9", b"\xff", b"\xc3"])
    return st.tuples(text, junk, st.integers(0, 400)).map(
        lambda t: t[0].encode()[: t[2]] + t[1] + t[0].encode()[t[2]:]
    )


_CONFIG_KEYS = ["T", "s0", "x"] + [
    f"{prefix}.{field}"
    for prefix in ("mu", "v", "v.term1", "v.term2", "v.term1.term1")
    for field in ("kind", "params", "levels", "breakpoints", "terms")
]
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["constant", "linear", "sinusoid", "regime_switch", "sum", "cubic"]),
    st.sampled_from(["", "0", "1", "2", "-1", "10**9", "0.05, 0.2", "0.5,", ",", "nan", "-inf"]),
    st.lists(st.floats(), max_size=5).map(lambda xs: ", ".join(map(repr, xs))),
    st.text(max_size=12),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES).map(" = ".join),
    st.text(max_size=24),
)


@st.composite
def fuzzed_configs(draw) -> str:
    """Config text: the lines of a well-formed config, each kept or not,
    shuffled with fuzzed key = value lines and free text."""
    kept = st.integers(0, 9).map(bool)
    lines = [line for line in draw(extreme_configs()).splitlines() if draw(kept)]
    lines += draw(st.lists(_CONFIG_LINES, max_size=4))
    return "\n".join(draw(st.permutations(lines)))


_PRICES = st.floats(5e-324, 1e308).map(repr)
_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "0", "-1", "nan", "price", " 2.5 ", '"5"', '"5\n0', "1_0", "\x00"]),
    st.text(max_size=6),
)


@st.composite
def fuzzed_price_csvs(draw) -> str:
    """Price CSV text: a header, rows of positive prices as wide as the
    header, and a few rows of fuzzed cells among them, with any line ends
    and an optional byte-order mark."""
    names = st.sampled_from(["price", "date", "Close", "adj_close", "value", "1.5"])
    header = draw(st.lists(names | st.text(max_size=6), min_size=1, max_size=3))
    width = len(header)
    rows = draw(st.lists(st.lists(_PRICES, min_size=width, max_size=width), max_size=8))
    rows += draw(st.lists(st.lists(_CELLS, max_size=width + 1), max_size=2))
    lines = [header, *draw(st.permutations(rows))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(",".join(cells) for cells in lines) + draw(st.sampled_from(["", end]))


class TestFuzzedInputs:
    """Whatever a price CSV or scenario config holds, reading it either
    succeeds or raises DataError or ScenarioError, and the CLI exits 1 on
    it with one error line and no traceback."""

    @settings(max_examples=400)
    @given(fuzzed_configs())
    def test_config_text_raises_only_data_or_scenario_errors(self, text):
        try:
            parse_scenario_config(text)
        except (DataError, ScenarioError):
            pass

    @settings(max_examples=150)
    @given(_with_junk(fuzzed_configs()))
    def test_simulate_on_a_fuzzed_config_exits_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp, "s.cfg"), Path(tmp, "path.csv")
            cfg.write_bytes(data)
            argv = ["simulate", "--scenario", str(cfg), "--n", "10", "--out", str(out)]
            code, stdout, stderr = quiet_main(argv)
            assert out.exists() == (code == 0)
        if code == 0:
            assert stderr == ""
        else:
            assert (code, stdout) == (1, "")
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
        try:
            data.decode()
        except UnicodeDecodeError:
            assert stderr.startswith(f"error: {cfg}: not UTF-8 text: ")

    @settings(max_examples=400)
    @given(_with_junk(fuzzed_price_csvs()) | st.binary(max_size=64))
    # extra columns, which loadtxt's usecols would drop
    @example(b"a,b\n1,2\n3,4,5\n6,7\n")
    @example(b"a,b\n1,2\n3\n6,7\n")
    # cells float() accepts and NumPy refuses
    @example(b"price\n1_0\n2\n")
    @example("price\n\u0661\u0662\n2\n".encode())
    @example("price\n\uff11\uff12\n2\n".encode())
    # cells NumPy reads as infinite
    @example(b"price\ninfinity\n2\n")
    @example(b"price\n1e400\n2\n")
    @example(b"price\n1\n-0\n2\n")
    # whitespace-only lines, one or two columns wide
    @example(b"price\n1\n \t \n2\n")
    @example(b"d,price\n1,2\n   \n3,4\n")
    # whitespace around a price, ASCII and not
    @example(b"price\n \x1c2.5\xc2\xa0\n3\n")
    # blank lines before the header, a blank header after a BOM
    @example(b"\n\nprice\n1\n2\n")
    @example(b"\xef\xbb\xbf\nprice\n1\n2\n")
    # quoted cells, one of them spanning two lines
    @example(b'price\n"5"\n2\n')
    @example(b'd,p\n"1,2\n3",4\n5,6\n')
    # CR-only and CRLF line ends, blank lines among them
    @example(b"price\r1\r\r2\r")
    @example(b"d,price\r\n1,2\r\n\r\n3,4\r\r\n")
    # a byte-order mark, and one more inside the header
    @example(b"\xef\xbb\xbfprice\n1\n2\n")
    @example(b"\xef\xbb\xbf\xef\xbb\xbfprice\n1\n2\n")
    # a NUL label, and a field past csv's field size limit
    @example(b"d,p\n\x00,1\n,2\n")
    @example(b"d,p\n" + b"0" * 131072 + b"1,1\n,2\n")
    # too few rows after the header
    @example(b"price\n1\n\n")
    @example(b"price\n\n\n")
    def test_price_csv_reads_as_the_streaming_reader_reads_it(self, data):
        # the oracle is the streaming reader: the same prices to the last
        # bit, or the same error text.  Files of any size take the compiled
        # route here, so that these short ones test it.
        def outcome(path):
            try:
                return load_prices(str(path), DEFAULT_DELTA).prices.tobytes()
            except DataError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "p.csv")
            path.write_bytes(data)
            with mock.patch.object(cli, "_LOADTXT_MIN_BYTES", 0):
                got = outcome(path)
            with mock.patch.object(cli, "_compiled_prices", return_value=None):
                assert got == outcome(path)

    @settings(max_examples=400)
    @given(_with_junk(fuzzed_price_csvs()) | st.binary(max_size=64))
    # consecutive prices whose ratio overflows, and whose ratio's log does
    @example(b"price\n1e-300\n1e300\n2e300\n")
    @example(b"price\n1e300\n1e-300\n2e-300\n")
    def test_price_csv_raises_only_data_errors_naming_the_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "p.csv"), Path(tmp, "est.csv")
            path.write_bytes(data)
            argv = ["track", "--input", str(path), "--filter", "filter0", "--theta", "0.5",
                    "--out", str(out)]
            try:
                load_prices(str(path), DEFAULT_DELTA)
            except DataError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: ")
                assert quiet_main(argv) == (1, "", f"error: {message}\n")
                assert not out.exists()
                return
            # an accepted series is tracked, or refused in one error line
            code, stdout, stderr = quiet_main(argv)
            assert out.exists() == (code == 0)
            if code == 0:
                assert stderr == ""
            else:
                assert (code, stdout) == (1, "")
                assert stderr.startswith("error: ") and stderr.count("\n") == 1


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

    def test_names_that_need_quoting_stay_one_cell(self, tmp_path, capsys):
        # a stem holding a comma or a quote is quoted, its quotes doubled
        names = ("a,b.csv", 'q"x.csv')
        inputs = [write_prices(tmp_path, name, count=120) for name in names]
        out = tmp_path / "bench.csv"
        assert main(["bench", "--input", *inputs, "--out", str(out)]) == 0
        text = out.read_text()
        assert '\n"a,b",garch11,' in text
        assert '\n"q""x",garch11,' in text
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert {len(row) for row in rows} == {3}
        assert {row[0] for row in rows[1:]} == {"a,b", 'q"x'}
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert [row["name"] for row in doc["rows"]] == ["a,b", 'q"x']
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

    @pytest.mark.parametrize("via", ["file", "directory"])
    def test_out_on_an_input_reached_through_a_link_exits_one(self, tmp_path, capsys, via):
        path = write_prices(tmp_path, name="p.csv", count=120)
        before = Path(path).read_bytes()
        if via == "file":
            (tmp_path / "q.csv").symlink_to("p.csv")
            argv = ["--input", str(tmp_path / "q.csv"), "--out", path]
        else:
            (tmp_path / "d").symlink_to(".")
            argv = ["--input", path, "--out", str(tmp_path / "d" / "p.csv")]
        code = main(["track", "--filter", "filter0", "--theta", "1", *argv])
        assert code == 1
        assert capsys.readouterr().err == f"error: --input and --out both name {path}\n"
        assert Path(path).read_bytes() == before

    def test_out_on_a_link_to_the_input_replaces_the_link(self, tmp_path, capsys):
        # the write renames over the link itself, so the input it led to is kept
        path = write_prices(tmp_path, name="p.csv", count=120)
        before = Path(path).read_bytes()
        link = tmp_path / "q.csv"
        link.symlink_to("p.csv")
        code = main(
            ["track", "--filter", "filter0", "--theta", "1", "--input", path, "--out", str(link)]
        )
        assert code == 0
        assert Path(path).read_bytes() == before
        assert not link.is_symlink()
        assert link.read_text().startswith("index,x,v_hat,residual\n")
        capsys.readouterr()

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

    def test_negative_base_seed_refused_before_tuning(self, tmp_path, capsys, monkeypatch):
        # the held-out path (seed base + seeds = 5) is valid, so only a check
        # of every seed before the first path keeps the tuner from running
        def forbidden(*args, **kwargs):
            raise AssertionError("tuned before the seeds were checked")

        monkeypatch.setattr("voltrack.evaluation.tune_filter0", forbidden)
        out = tmp_path / "c.csv"
        code = main(
            ["convergence", "--scenario", write_scenario(tmp_path), "--n", "100,300,1000",
             "--base-seed", "-5", "--seeds", "10", "--out", str(out)]
        )
        assert (code, capsys.readouterr()) == (
            1,
            ("", "error: seed must be non-negative, got -5\n"),
        )
        assert not out.exists()

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

    def test_diverging_theta_exits_one_before_writing(self, tmp_path, capsys):
        # the pure k=0 filter is unstable for theta >= 50 at n = 125, so
        # theta = 55 is refused before any run: one error line naming theta
        # and n, no warning and no output file
        scenario = write_scenario(tmp_path)
        code = main(
            ["ordering", "--scenario", scenario,
             "--theta-grid", "1,2,3,5,8,13,21,34,55,1000", "--n", "125", "--seeds", "10",
             "--out", str(tmp_path / "o.csv"), "--json-out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the order-0 filter diverges at theta = 55.0 for n = 125: its one-step "
            "matrix has spectral radius 1.2 (stable below 1)\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["scenario.cfg"]

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
