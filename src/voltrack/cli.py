"""Command-line interface: ingest prices, run and tune filters, experiment.

Subcommands, all run through ``main``: track, tune, simulate, bench,
convergence, ordering.  A price CSV's label column is skipped, not
stored.  Every output file is written atomically and uses shortest
round-tripping float formatting, so a fixed seed gives byte-identical
files across runs and a simulate -> track pipeline reproduces in-memory
results exactly.  Bare output filenames are redirected into
$VOLTRACK_OUT_DIR when it is set.

Exit codes: 0 on success, 2 on usage errors (unknown subcommand or
flag), 1 on data, scenario or tuning errors with a one-line diagnostic
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
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
    SCHEMA_VERSION,
    METHODS,
    bench_csv_text,
    bench_json_text,
    benchmark_report,
    convergence_csv_text,
    convergence_experiment,
    convergence_json_text,
    convergence_plot_text,
    ordering_agreement,
    ordering_csv_text,
    ordering_json_text,
)
from .filters import ExtendedParams, GarchParams, run
from .ioutil import atomic_write_text, float_repr, resolve_out_path
from .simulate import (
    compute_heteroscedasticity,
    generate_path,
    parse_scenario_config,
    path_csv_text,
)

__all__ = ["PriceSeries", "RunConfig", "load_prices", "main"]

DEFAULT_DELTA = 1.0 / 252.0

# Explicit track flag -> the RunConfig field that holds its value.
_FLAG_FIELDS = {"theta": "theta", "a": "a_coeffs", "level": "level", "g": "g_coeffs"}
_PRICE_HEADERS = ("price", "adjclose", "adj_close", "close")


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


@dataclass(frozen=True)
class RunConfig:
    """Filter selection for the track command.

    Exactly one of tune / explicit parameters must be given; which
    explicit parameters a kind takes is declared in evaluation.METHODS.
    """

    kind: str
    k: int | None = None
    tune: bool = False
    theta: float | None = None
    a_coeffs: tuple[float, ...] | None = None
    level: float | None = None
    g_coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        method = METHODS.get(self.kind)
        if method is None:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "adaptive-k":
            if self.k is None:
                raise ValueError("adaptive-k requires --k")
        elif self.k is not None:
            raise ValueError(f"--k does not apply to {self.kind}")
        given = {
            flag: getattr(self, field)
            for flag, field in _FLAG_FIELDS.items()
            if getattr(self, field) is not None
        }
        if self.tune:
            if given:
                raise ValueError("give either --tune or explicit parameters, not both")
            return
        if not given:
            raise ValueError("give either --tune or explicit parameters")
        for flag in given:
            if flag not in method.flags:
                takes = ", ".join(f"--{name}" for name in method.flags)
                raise ValueError(
                    f"--{flag} does not apply to {self.kind}; it takes only {takes}"
                )
        for flag, count in method.flags.items():
            if count is None:
                continue
            if flag not in given:
                raise ValueError(f"{self.kind} requires --{flag}")
            if np.size(given[flag]) != count:
                raise ValueError(f"{self.kind} requires --{flag} with {count} value(s)")
        self.explicit_params()

    def explicit_params(self) -> ExtendedParams | GarchParams:
        """The parameters the explicit flags give; a and level default to zeros."""
        a = self.a_coeffs
        level = 0.0 if self.level is None else self.level
        if self.g_coeffs is not None:
            return GarchParams(len(self.g_coeffs), len(a), level, self.g_coeffs, a)
        if self.k is not None:
            k = self.k
        else:
            k = 0 if a is None else len(a) - 1
        if a is None:
            a = (0.0,) * (k + 1)
        return ExtendedParams(k=k, theta=self.theta, a_coeffs=a, k_level=level)


def load_prices(path, delta: float) -> PriceSeries:
    """Read a price CSV: a header row, then one price per row.

    Single-column files hold bare prices; multi-column files carry
    labels (dates) in the first column, which is skipped, and the price
    in a column named price/adjclose/adj_close/close (case-insensitive),
    falling back to the second column.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            prices = _read_price_rows(path, csv.reader(handle))
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from exc
    if len(prices) < 2:
        raise DataError(f"{path}: need at least 2 prices, got {len(prices)}")
    arr = np.asarray(prices)
    arr.setflags(write=False)
    return PriceSeries(arr, delta)


def _read_price_rows(path, reader) -> list[float]:
    """The prices of the rows after the header; blank rows are skipped,
    and errors name the line the reader is on."""
    rows = filter(None, reader)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if all(_is_number(cell) for cell in header):
        raise DataError(f"{path}: header row required, got numeric first row")
    names = [cell.strip().lower() for cell in header]
    known = [names.index(h) for h in _PRICE_HEADERS if h in names]
    price_col = known[0] if known else min(1, len(header) - 1)
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


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


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


def _params_doc(params) -> dict:
    kind = "extended" if isinstance(params, ExtendedParams) else "garch"
    return {"kind": kind, **{f.name: getattr(params, f.name) for f in fields(params)}}


def _tuning_doc(kind: str, report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tuning",
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
    --input, --scenario) or another output's file, before any work is done."""
    seen = {}
    for flag in ("--input", "--scenario"):
        paths = getattr(args, flag[2:], None)
        for path in [paths] if isinstance(paths, str) else paths or ():
            seen[os.path.abspath(path)] = flag
    for flag, path in flag_paths:
        if path is None:
            continue
        target = os.path.abspath(resolve_out_path(path))
        if target in seen:
            raise ValueError(f"{seen[target]} and {flag} both name {target}")
        seen[target] = flag


def _cmd_track(args) -> int:
    _distinct_outputs(args, ("--out", args.out))
    xs = _load_xs(args)
    explicit = {field: getattr(args, flag) for flag, field in _FLAG_FIELDS.items()}
    config = RunConfig(kind=args.filter, k=args.k, tune=args.tune, **explicit)
    if config.tune:
        params = METHODS[config.kind].tune(xs, config.k).best_params
    else:
        params = config.explicit_params()
    result = run(xs, params)
    lines = ["index,x,v_hat,residual"]
    for i in range(xs.size):
        lines.append(
            f"{i},{float_repr(xs[i])},{float_repr(result.estimates[i])},"
            f"{float_repr(result.residuals[i])}"
        )
    _write(args.out, "\n".join(lines) + "\n")
    print(f"s_n = {float_repr(result.s_n)}")
    return 0


def _cmd_tune(args) -> int:
    _distinct_outputs(args, ("--out", args.out))
    xs = _load_xs(args)
    RunConfig(kind=args.filter, k=args.k, tune=True)
    report = METHODS[args.filter].tune(xs, args.k)
    _write(args.out, json.dumps(_tuning_doc(args.filter, report), indent=2) + "\n")
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
    report = benchmark_report(series_set)
    _write(args.out, bench_csv_text(report))
    doc = json.loads(bench_json_text(report))
    doc["delta"] = delta
    _write(json_out, json.dumps(doc, indent=2) + "\n")
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
        burn_c=args.burn_c,
    )
    _write(args.out, convergence_csv_text(result))
    if args.json_out:
        _write(args.json_out, convergence_json_text(result))
    if args.plot_out:
        _write(args.plot_out, convergence_plot_text(result))
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
        burn_c=args.burn_c,
    )
    _write(args.out, ordering_csv_text(result))
    if args.json_out:
        _write(args.json_out, ordering_json_text(result))
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
    conv.add_argument("--burn-c", type=float, default=1.0, help="burn-in scale factor")
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
    ordering.add_argument("--burn-c", type=float, default=1.0, help="burn-in scale factor")
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
