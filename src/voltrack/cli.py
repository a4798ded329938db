"""Command-line interface: ingest prices, run and tune filters, experiment.

Subcommands, all run through ``main``: track, tune, simulate, bench,
convergence, ordering.  A price CSV's label column is skipped, not
stored.  Every output file is formatted by ioutil (csv_text, json_text)
and written atomically, with shortest round-tripping float formatting,
so a fixed seed gives byte-identical files across runs and a simulate
-> track pipeline reproduces in-memory results exactly.  Bare output
filenames are redirected into $VOLTRACK_OUT_DIR when it is set.

Exit codes: 0 on success, 2 on usage errors (unknown subcommand or
flag), 1 on data, scenario or tuning errors with a one-line diagnostic
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, VoltrackError
from .evaluation import (
    BENCH_METHODS,
    METHODS,
    benchmark_report,
    convergence_experiment,
    ordering_agreement,
)
from .filters import ExtendedParams, GarchParams, run
from .ioutil import atomic_write_text, csv_text, float_repr, json_text, resolve_out_path
from .simulate import (
    compute_heteroscedasticity,
    generate_path,
    parse_scenario_config,
    path_csv_text,
)

__all__ = ["PriceSeries", "load_prices", "main"]

DEFAULT_DELTA = 1.0 / 252.0

_PRICE_HEADERS = ("price", "adjclose", "adj_close", "close")
# np.loadtxt's fixed cost, about 0.1 ms, is more than the streaming reader
# takes on a file below about 8 KiB (150 to 250 rows, by the row width)
_LOADTXT_MIN_BYTES = 8192


@dataclass(frozen=True)
class PriceSeries:
    """A positive price series with its sampling interval in years."""

    prices: np.ndarray
    delta: float

    def __post_init__(self):
        if self.prices.ndim != 1 or self.prices.size < 2:
            raise ValueError("prices must be a 1-D series of at least 2 values")
        if not np.all(np.isfinite(self.prices) & (self.prices > 0.0)):
            raise ValueError("prices must be positive and finite")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


def load_prices(path, delta: float) -> PriceSeries:
    """Read a price CSV: a header row, then one price per row.

    Single-column files hold bare prices; multi-column files carry
    labels (dates) in the first column, which is skipped, and the price
    in a column named price/adjclose/adj_close/close (case-insensitive),
    falling back to the second column.

    NumPy's compiled parser reads a file of 8 KiB or more when
    _compiled_prices can show from its bytes that the result is the
    streaming reader's; every other file is read by _read_price_rows,
    which words every error.  Both give the same array for every file
    either accepts.
    """
    arr = _compiled_prices(path)
    if arr is None:
        try:
            with open(path, newline="", encoding="utf-8-sig") as handle:
                prices = _read_price_rows(path, csv.reader(handle))
        except csv.Error as exc:
            raise DataError(f"{path}: malformed CSV: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
        if len(prices) < 2:
            raise DataError(f"{path}: need at least 2 prices, got {len(prices)}")
        arr = np.asarray(prices)
    arr.setflags(write=False)
    return PriceSeries(arr, delta)


def _compiled_prices(path) -> np.ndarray | None:
    """The price column as np.loadtxt parses it, or None where the
    streaming reader must read the file.

    _loadtxt_header passes only files that loadtxt reads into csv's rows.
    The structured dtype makes loadtxt refuse a row whose width is not the
    header's.  loadtxt parses each price with the routine float() uses,
    minus digit underscores and non-ASCII digits, which it refuses; a
    refusal, or a price that is not finite and positive, falls back.  The
    file is read again by name: loadtxt parses only a named file in chunks.
    """
    header = _loadtxt_header(path)
    if header is None:
        return None
    col = _price_column(header)
    fields = [(f"c{i}", "f8" if i == col else "S0") for i in range(len(header))]
    try:
        table = np.loadtxt(
            path, fields, delimiter=",", comments=None, skiprows=1,
            encoding="utf-8-sig", ndmin=1,
        )
    except (ValueError, OSError):
        return None
    prices = table[f"c{col}"].copy()
    if not (prices.min() > 0.0 and prices.max() < math.inf):
        return None
    return prices


def _loadtxt_header(path) -> list[str] | None:
    """The header cells of a file that loadtxt is to read, or None: a file
    of _LOADTXT_MIN_BYTES or more whose bytes show that csv splits it into
    the rows loadtxt reads.

    Such a file holds no quote (csv unquotes, loadtxt does not), no NUL
    (Python 3.10's csv refuses it) and no line longer than csv's field
    limit; its first line is a header, and at least two rows follow it.
    Both readers end a line at LF, CR or CRLF and skip empty lines.
    """
    try:
        if os.path.getsize(path) < _LOADTXT_MIN_BYTES:
            return None
        data = Path(path).read_bytes()
    except OSError:
        return None
    if b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    line_end = buf == 10
    if b"\r" in data:
        line_end |= buf == 13
    lengths = np.diff(np.flatnonzero(line_end), prepend=-1, append=buf.size) - 1
    if lengths.max() > csv.field_size_limit() or np.count_nonzero(lengths[1:]) < 2:
        return None
    try:
        header = data[: lengths[0]].decode("utf-8-sig").split(",")
    except UnicodeDecodeError:
        return None
    if header == [""] or all(_is_number(cell) for cell in header):
        return None
    return header


def _read_price_rows(path, reader) -> list[float]:
    """The prices of the rows after the header; blank rows are skipped,
    and errors name the line the reader is on."""
    rows = filter(None, reader)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if all(_is_number(cell) for cell in header):
        raise DataError(f"{path}: header row required, got numeric first row")
    price_col = _price_column(header)
    prices = []
    for row in rows:
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {reader.line_num}: expected {len(header)} columns, "
                f"got {len(row)}"
            )
        cell = row[price_col].strip()
        try:
            value = float(cell)
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: bad price {cell!r}") from exc
        if not (math.isfinite(value) and value > 0.0):
            raise DataError(f"{path}: line {reader.line_num}: non-positive price {cell}")
        prices.append(value)
    return prices


def _price_column(header: list[str]) -> int:
    """The price column's index: that of the first _PRICE_HEADERS name the
    header holds, else the second column, else the only one."""
    names = [cell.strip().lower() for cell in header]
    known = [names.index(h) for h in _PRICE_HEADERS if h in names]
    return known[0] if known else min(1, len(header) - 1)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _number_list(kind: type, text: str) -> tuple:
    """A comma-separated list of int or float values, as an argparse type."""
    try:
        return tuple(kind(p) for p in text.split(","))
    except ValueError as exc:
        noun = "integer" if kind is int else "number"
        raise argparse.ArgumentTypeError(f"bad {noun} list {text!r}") from exc


_float_list = partial(_number_list, float)
_int_list = partial(_number_list, int)


def _not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: not UTF-8 text: {exc.reason}")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _delta(args) -> float:
    # None, not DEFAULT_DELTA, so that _load_xs can reject --delta with --scenario
    return DEFAULT_DELTA if args.delta is None else args.delta


def _load_xs(args) -> np.ndarray:
    """Observation series from either a price CSV or a simulated path."""
    if (args.input is None) == (args.scenario is None):
        raise ValueError("give exactly one of --input or --scenario")
    if args.input is not None:
        for flag in ("n", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply to --input")
        series = load_prices(args.input, _delta(args))
        return compute_heteroscedasticity(series.prices, series.delta)
    if args.delta is not None:
        raise ValueError("--delta does not apply to --scenario")
    if args.n is None:
        raise ValueError("--scenario requires --n")
    scenario = parse_scenario_config(_read_text(args.scenario))
    return generate_path(scenario, args.n, 0 if args.seed is None else args.seed).xs


def _fields_doc(obj) -> dict:
    """A dataclass's fields in order, as a JSON object."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _params_doc(params) -> dict:
    kind = "extended" if isinstance(params, ExtendedParams) else "garch"
    return {"kind": kind, **_fields_doc(params)}


def _tuning_doc(kind: str, report) -> dict:
    return {
        "filter": kind,
        "best_params": _params_doc(report.best_params),
        "best_sn": report.best_sn,
        "trace": [
            {"name": stage.name, "params": dict(stage.params), "sn": stage.sn}
            for stage in report.trace
        ],
        "evaluations": [
            {"params": _params_doc(p), "sn": v} for p, v in report.evaluations
        ],
    }


def _write(path, text: str) -> None:
    atomic_write_text(resolve_out_path(path), text)


def _distinct_outputs(args, *flag_paths: tuple[str, str | None]) -> None:
    """Refuse an output flag that names an input file (--input, each bench
    --input, --scenario) or another output's file, before any work is done.

    An input is the file its links lead to.  An output is resolved only
    up to its directory: the write replaces a link there, not its target.
    """
    seen = {}
    for flag in ("--input", "--scenario"):
        paths = getattr(args, flag[2:], None)
        for path in [paths] if isinstance(paths, str) else paths or ():
            seen[os.path.realpath(path)] = flag
    for flag, path in flag_paths:
        if path is None:
            continue
        head, tail = os.path.split(os.path.abspath(resolve_out_path(path)))
        target = os.path.join(os.path.realpath(head), tail)
        if target in seen:
            raise ValueError(f"{seen[target]} and {flag} both name {target}")
        seen[target] = flag


def _check_k(args) -> None:
    """--k is required by adaptive-k, in 0..MAX_ORDER, and refused by
    every other kind."""
    if args.filter == "adaptive-k":
        if args.k is None:
            raise ValueError("adaptive-k requires --k")
        ExtendedParams(args.k, 1.0)  # refuses a k out of range in its own words
    elif args.k is not None:
        raise ValueError(f"--k does not apply to {args.filter}")


def _explicit_params(args) -> ExtendedParams | GarchParams | None:
    """The parameters track's explicit flags give, None with --tune.

    Exactly one of --tune / explicit parameters must be given; which
    flags a kind takes, and how many values each, is declared in
    evaluation.METHODS.  --a and --level default to zeros.
    """
    _check_k(args)
    flags = METHODS[args.filter].flags
    given = {
        flag: getattr(args, flag)
        for flag in ("theta", "a", "level", "g")
        if getattr(args, flag) is not None
    }
    if args.tune:
        if given:
            raise ValueError("give either --tune or explicit parameters, not both")
        return None
    if not given:
        raise ValueError("give either --tune or explicit parameters")
    for flag in given:
        if flag not in flags:
            takes = ", ".join(f"--{name}" for name in flags)
            raise ValueError(
                f"--{flag} does not apply to {args.filter}; it takes only {takes}"
            )
    for flag, count in flags.items():
        if count is None:
            continue
        if flag not in given:
            raise ValueError(f"{args.filter} requires --{flag}")
        if np.size(given[flag]) != count:
            raise ValueError(f"{args.filter} requires --{flag} with {count} value(s)")
    a, g = args.a, args.g
    level = 0.0 if args.level is None else args.level
    if g is not None:
        return GarchParams(len(g), len(a), level, g, a)
    k = args.k
    if k is None:
        k = 0 if a is None else len(a) - 1
    return ExtendedParams(k=k, theta=args.theta, a_coeffs=a or (), k_level=level)


def _cmd_track(args) -> int:
    _distinct_outputs(args, ("--out", args.out))
    params = _explicit_params(args)
    xs = _load_xs(args)
    if params is None:
        params = METHODS[args.filter].tune(xs, args.k).best_params
    result = run(xs, params)
    columns = (np.arange(xs.size), xs, result.estimates, result.residuals)
    _write(args.out, csv_text(("index", "x", "v_hat", "residual"), *columns))
    print(f"s_n = {float_repr(result.s_n)}")
    return 0


def _cmd_tune(args) -> int:
    _distinct_outputs(args, ("--out", args.out))
    _check_k(args)
    xs = _load_xs(args)
    report = METHODS[args.filter].tune(xs, args.k)
    _write(args.out, json_text("tuning", _tuning_doc(args.filter, report)))
    print(f"best_sn = {float_repr(report.best_sn)}")
    return 0


def _cmd_simulate(args) -> int:
    _distinct_outputs(args, ("--out", args.out))
    scenario = parse_scenario_config(_read_text(args.scenario))
    path = generate_path(scenario, args.n, args.seed)
    _write(args.out, path_csv_text(path))
    print(f"delta = {float_repr(path.delta)}")
    return 0


def _cmd_bench(args) -> int:
    json_out = args.json_out if args.json_out else str(Path(args.out).with_suffix(".json"))
    _distinct_outputs(args, ("--out", args.out), ("--json-out", json_out))
    delta = _delta(args)
    series_set = {}
    for input_path in args.input:
        series = load_prices(input_path, delta)
        name = stem = Path(input_path).stem
        suffix = 2
        while name in series_set:
            name = f"{stem}-{suffix}"
            suffix += 1
        series_set[name] = compute_heteroscedasticity(series.prices, series.delta)
    rows = [
        {"name": name, "n": series_set[name].size, "cells": cells}
        for name, cells in benchmark_report(series_set).items()
    ]
    # long format: one (series, method, sn) line per cell
    long = [(row["name"], *cell) for row in rows for cell in row["cells"].items()]
    _write(args.out, csv_text(("series", "method", "sn"), *zip(*long)))
    doc = {"columns": list(BENCH_METHODS), "rows": rows, "delta": delta}
    _write(json_out, json_text("bench", doc))
    return 0


def _cmd_convergence(args) -> int:
    plot = ("--plot-out", args.plot_out)
    _distinct_outputs(args, ("--out", args.out), ("--json-out", args.json_out), plot)
    scenario = parse_scenario_config(_read_text(args.scenario))
    result = convergence_experiment(
        scenario,
        args.k,
        args.n,
        args.seeds,
        base_seed=args.base_seed,
    )
    _write(args.out, csv_text(("n", "mse"), result.n_values, result.mse_values))
    if args.json_out:
        _write(args.json_out, json_text("convergence", _fields_doc(result)))
    if args.plot_out:
        # (log n, log mse) pairs, ready for external plotting tools
        lines = [
            f"{math.log(n)!r} {math.log(mse)!r}\n"
            for n, mse in zip(result.n_values, result.mse_values)
        ]
        _write(args.plot_out, "".join(lines))
    print(
        f"fitted slope = {float_repr(result.fitted_slope)} "
        f"(theoretical {float_repr(result.theoretical_slope)})"
    )
    return 0


def _cmd_ordering(args) -> int:
    _distinct_outputs(args, ("--out", args.out), ("--json-out", args.json_out))
    scenario = parse_scenario_config(_read_text(args.scenario))
    result = ordering_agreement(
        scenario,
        args.theta_grid,
        args.n,
        args.seeds,
        k=args.k,
        base_seed=args.base_seed,
    )
    columns = (result.theta_grid, result.sn_values, result.vn_values)
    _write(args.out, csv_text(("theta", "sn", "vn"), *columns))
    if args.json_out:
        _write(args.json_out, json_text("ordering", _fields_doc(result)))
    match = "true" if result.argmin_match else "false"
    print(f"kendall tau = {float_repr(result.kendall_tau)}, argmin match = {match}")
    return 0


def _add_prices(parser: argparse.ArgumentParser, **input_kwargs) -> None:
    parser.add_argument("--input", **input_kwargs)
    parser.add_argument(
        "--delta",
        type=float,
        help="sampling interval in years (default 1/252)",
    )


def _add_series_source(parser: argparse.ArgumentParser) -> None:
    _add_prices(parser, help="price CSV (header row required)")
    parser.add_argument("--scenario", help="scenario config for a simulated series")
    parser.add_argument("--n", type=int, help="sample size for --scenario")
    # None, not 0, so that _load_xs can reject --seed with --input
    parser.add_argument("--seed", type=int, help="RNG seed for --scenario")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltrack",
        description="Track historical volatility from prices or simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="run a filter over a series")
    _add_series_source(track)
    track.add_argument("--filter", choices=tuple(METHODS), required=True)
    track.add_argument("--k", type=int, help="smoothness order for adaptive-k")
    track.add_argument("--tune", action="store_true", help="tune before running")
    track.add_argument("--theta", type=float, help="adaptation parameter")
    track.add_argument("--a", type=_float_list, help="relaxation coefficients a1[,a2,...]")
    track.add_argument("--level", type=float, help="long-run level K")
    track.add_argument("--g", type=_float_list, help="GARCH g coefficients g1[,g2]")
    track.add_argument("--out", required=True, help="estimates CSV output")
    track.set_defaults(func=_cmd_track)

    tune = sub.add_parser("tune", help="tune a filter and write the report")
    _add_series_source(tune)
    tune.add_argument("--filter", choices=tuple(METHODS), required=True)
    tune.add_argument("--k", type=int, help="smoothness order for adaptive-k")
    tune.add_argument("--out", required=True, help="tuning report JSON output")
    tune.set_defaults(func=_cmd_tune)

    simulate = sub.add_parser("simulate", help="simulate a path and write it as CSV")
    simulate.add_argument("--scenario", required=True, help="scenario config file")
    simulate.add_argument("--n", type=int, required=True, help="number of intervals")
    simulate.add_argument("--seed", type=int, default=0, help="RNG seed")
    simulate.add_argument("--out", required=True, help="path CSV output")
    simulate.set_defaults(func=_cmd_simulate)

    bench = sub.add_parser("bench", help="tabulate tuned S_n per series and method")
    _add_prices(bench, nargs="+", required=True, help="price CSV files")
    bench.add_argument("--out", required=True, help="bench CSV output")
    bench.add_argument("--json-out", help="bench JSON output (default: out with .json)")
    bench.set_defaults(func=_cmd_bench)

    conv = sub.add_parser("convergence", help="oracle-loss decay across sample sizes")
    conv.add_argument("--scenario", required=True, help="scenario config file")
    conv.add_argument("--k", type=int, default=0, help="smoothness order")
    conv.add_argument("--n", type=_int_list, required=True, help="sizes n1,n2,...")
    conv.add_argument("--seeds", type=int, default=20, help="evaluation seeds per n")
    conv.add_argument("--base-seed", type=int, default=0)
    conv.add_argument("--out", required=True, help="convergence CSV output")
    conv.add_argument("--json-out", help="optional JSON output")
    conv.add_argument("--plot-out", help="optional (log n, log mse) two-column output")
    conv.set_defaults(func=_cmd_convergence)

    ordering = sub.add_parser("ordering", help="observable vs oracle loss across theta")
    ordering.add_argument("--scenario", required=True, help="scenario config file")
    ordering.add_argument("--k", type=int, default=0, help="smoothness order")
    ordering.add_argument(
        "--theta-grid", type=_float_list, required=True, help="grid t1,t2,..."
    )
    ordering.add_argument("--n", type=int, required=True, help="sample size")
    ordering.add_argument("--seeds", type=int, default=20, help="seeds per theta")
    ordering.add_argument("--base-seed", type=int, default=0)
    ordering.add_argument("--out", required=True, help="ordering CSV output")
    ordering.add_argument("--json-out", help="optional JSON output")
    ordering.set_defaults(func=_cmd_ordering)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the subcommand argv names (default sys.argv[1:]); return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (VoltrackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
