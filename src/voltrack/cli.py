"""Command-line interface: ingest prices, run and tune filters, experiment.

Subcommands: track, tune, simulate, bench, convergence, ordering.  Every
output file is written atomically and uses shortest round-tripping float
formatting, so a fixed seed gives byte-identical files across runs and a
simulate -> track pipeline reproduces in-memory results exactly.  Bare
output filenames are redirected into $VOLTRACK_OUT_DIR when it is set.

Exit codes: 0 on success, 2 on usage errors (unknown subcommand or
flag), 1 on data, scenario or tuning errors with a one-line diagnostic
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, VoltrackError
from .evaluation import (
    SCHEMA_VERSION,
    TUNERS,
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

__all__ = ["PriceSeries", "RunConfig", "load_prices", "dispatch", "main"]

DEFAULT_DELTA = 1.0 / 252.0

_KINDS = tuple(TUNERS)
_PRICE_HEADERS = ("price", "adjclose", "adj_close", "close")


@dataclass(frozen=True)
class PriceSeries:
    """A named positive price series with its sampling interval in years."""

    name: str
    timestamps: tuple[str, ...] | None
    prices: np.ndarray
    delta: float

    def __post_init__(self):
        if self.prices.ndim != 1 or self.prices.size < 2:
            raise ValueError("prices must be a 1-D series of at least 2 values")
        if not np.all(np.isfinite(self.prices) & (self.prices > 0.0)):
            raise ValueError("prices must be positive and finite")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.timestamps is not None and len(self.timestamps) != self.prices.size:
            raise ValueError("timestamps must match prices in length")


@dataclass(frozen=True)
class RunConfig:
    """Filter selection for the track command.

    Exactly one of tune / explicit parameters must be given; which
    explicit parameters are required depends on the kind.
    """

    kind: str
    k: int | None = None
    tune: bool = False
    theta: float | None = None
    a_coeffs: tuple[float, ...] | None = None
    level: float | None = None
    g_coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "adaptive-k":
            if self.k is None:
                raise ValueError("adaptive-k requires --k")
        elif self.k is not None:
            raise ValueError(f"--k does not apply to {self.kind}")
        explicit = any(
            v is not None
            for v in (self.theta, self.a_coeffs, self.level, self.g_coeffs)
        )
        if self.tune and explicit:
            raise ValueError("give either --tune or explicit parameters, not both")
        if not self.tune and not explicit:
            raise ValueError("give either --tune or explicit parameters")
        if self.tune:
            return
        if self.kind in ("garch11", "garch22"):
            order = 1 if self.kind == "garch11" else 2
            if self.theta is not None:
                raise ValueError(f"--theta does not apply to {self.kind}")
            if self.level is None:
                raise ValueError(f"{self.kind} requires --level (the constant K)")
            if self.g_coeffs is None or len(self.g_coeffs) != order:
                raise ValueError(f"{self.kind} requires --g with {order} value(s)")
            if self.a_coeffs is None or len(self.a_coeffs) != order:
                raise ValueError(f"{self.kind} requires --a with {order} value(s)")
            return
        if self.theta is None:
            raise ValueError(f"{self.kind} requires --theta")
        if self.g_coeffs is not None:
            raise ValueError(f"--g does not apply to {self.kind}")
        if self.kind == "filter0":
            if self.a_coeffs is not None or self.level is not None:
                raise ValueError("filter0 takes only --theta")
        elif self.kind == "filter1":
            if self.a_coeffs is None or len(self.a_coeffs) != 1:
                raise ValueError("filter1 requires --a with 1 value")
            if self.level is None:
                raise ValueError("filter1 requires --level")
        elif self.kind == "filter2":
            if self.a_coeffs is None or len(self.a_coeffs) != 2:
                raise ValueError("filter2 requires --a with 2 values")
            if self.level is None:
                raise ValueError("filter2 requires --level")
        else:  # adaptive-k: a_coeffs and level are optional refinements
            if self.a_coeffs is not None and len(self.a_coeffs) != self.k + 1:
                raise ValueError(f"adaptive-k requires --a with k+1={self.k + 1} values")

    def explicit_params(self) -> ExtendedParams | GarchParams:
        if self.kind in ("garch11", "garch22"):
            order = 1 if self.kind == "garch11" else 2
            return GarchParams(
                p=order,
                q=order,
                k_const=self.level,
                g_coeffs=self.g_coeffs,
                a_coeffs=self.a_coeffs,
            )
        if self.kind == "filter0":
            return ExtendedParams(k=0, theta=self.theta, a_coeffs=(0.0,), k_level=0.0)
        if self.kind == "filter1":
            return ExtendedParams(
                k=0, theta=self.theta, a_coeffs=self.a_coeffs, k_level=self.level
            )
        if self.kind == "filter2":
            return ExtendedParams(
                k=1, theta=self.theta, a_coeffs=self.a_coeffs, k_level=self.level
            )
        a = self.a_coeffs if self.a_coeffs is not None else (0.0,) * (self.k + 1)
        level = self.level if self.level is not None else 0.0
        return ExtendedParams(k=self.k, theta=self.theta, a_coeffs=a, k_level=level)


def load_prices(path, delta: float, name: str | None = None) -> PriceSeries:
    """Read a price CSV: a header row, then one price per row.

    Single-column files hold bare prices; multi-column files carry
    labels (dates) in the first column and the price in a column named
    price/adjclose/adj_close/close (case-insensitive), falling back to
    the second column.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from exc
    rows = [row for row in rows if row]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if all(_is_number(cell) for cell in header):
        raise DataError(f"{path}: header row required, got numeric first row")
    if len(header) == 1:
        label_col = None
        price_col = 0
    else:
        label_col = 0
        names = [cell.strip().lower() for cell in header]
        price_col = 1
        for candidate in _PRICE_HEADERS:
            if candidate in names:
                price_col = names.index(candidate)
                break
    prices = []
    labels = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {line_no}: expected {len(header)} columns, got {len(row)}"
            )
        cell = row[price_col].strip()
        try:
            value = float(cell)
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: bad price {cell!r}") from exc
        if not (math.isfinite(value) and value > 0.0):
            raise DataError(f"{path}: line {line_no}: non-positive price {cell}")
        prices.append(value)
        if label_col is not None:
            labels.append(row[label_col].strip())
    if len(prices) < 2:
        raise DataError(f"{path}: need at least 2 prices, got {len(prices)}")
    arr = np.asarray(prices)
    arr.setflags(write=False)
    return PriceSeries(
        name=name if name is not None else Path(path).stem,
        timestamps=tuple(labels) if label_col is not None else None,
        prices=arr,
        delta=delta,
    )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_xs(args) -> np.ndarray:
    """Observation series from either a price CSV or a simulated path."""
    if (args.input is None) == (args.scenario is None):
        raise ValueError("give exactly one of --input or --scenario")
    if args.scenario is not None:
        if args.n is None:
            raise ValueError("--scenario requires --n")
        scenario = parse_scenario_config(_read_text(args.scenario))
        return generate_path(scenario, args.n, args.seed).xs
    series = load_prices(args.input, args.delta, args.name)
    return compute_heteroscedasticity(series.prices, series.delta)


def _params_doc(params) -> dict:
    if isinstance(params, ExtendedParams):
        return {
            "kind": "extended",
            "k": params.k,
            "theta": params.theta,
            "a_coeffs": list(params.a_coeffs),
            "k_level": params.k_level,
        }
    return {
        "kind": "garch",
        "p": params.p,
        "q": params.q,
        "k_const": params.k_const,
        "g_coeffs": list(params.g_coeffs),
        "a_coeffs": list(params.a_coeffs),
    }


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


def _cmd_track(args) -> int:
    xs = _load_xs(args)
    config = RunConfig(
        kind=args.filter,
        k=args.k,
        tune=args.tune,
        theta=args.theta,
        a_coeffs=args.a,
        level=args.level,
        g_coeffs=args.g,
    )
    if config.tune:
        params = TUNERS[config.kind](xs, config.k).best_params
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
    xs = _load_xs(args)
    if args.filter == "adaptive-k" and args.k is None:
        raise ValueError("adaptive-k requires --k")
    report = TUNERS[args.filter](xs, args.k)
    _write(args.out, json.dumps(_tuning_doc(args.filter, report), indent=2) + "\n")
    print(f"best_sn = {float_repr(report.best_sn)}")
    return 0


def _cmd_simulate(args) -> int:
    scenario = parse_scenario_config(_read_text(args.scenario))
    path = generate_path(scenario, args.n, args.seed)
    _write(args.out, path_csv_text(path))
    print(f"delta = {float_repr(path.delta)}")
    return 0


def _cmd_bench(args) -> int:
    series_set = {}
    for input_path in args.input:
        series = load_prices(input_path, args.delta)
        name = series.name
        suffix = 2
        while name in series_set:
            name = f"{series.name}-{suffix}"
            suffix += 1
        series_set[name] = compute_heteroscedasticity(series.prices, series.delta)
    report = benchmark_report(series_set)
    _write(args.out, bench_csv_text(report))
    doc = json.loads(bench_json_text(report))
    doc["delta"] = args.delta
    json_out = args.json_out if args.json_out else str(Path(args.out).with_suffix(".json"))
    _write(json_out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_convergence(args) -> int:
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


def _add_series_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="price CSV (header row required)")
    parser.add_argument(
        "--delta",
        type=float,
        default=DEFAULT_DELTA,
        help="sampling interval in years (default 1/252)",
    )
    parser.add_argument("--name", help="series name override")
    parser.add_argument("--scenario", help="scenario config for a simulated series")
    parser.add_argument("--n", type=int, help="sample size for --scenario")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for --scenario")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltrack",
        description="Track historical volatility from prices or simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="run a filter over a series")
    _add_series_source(track)
    track.add_argument("--filter", choices=_KINDS, required=True)
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
    tune.add_argument("--filter", choices=_KINDS, required=True)
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
    bench.add_argument("--input", nargs="+", required=True, help="price CSV files")
    bench.add_argument(
        "--delta",
        type=float,
        default=DEFAULT_DELTA,
        help="sampling interval in years (default 1/252)",
    )
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


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run the selected subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (VoltrackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
