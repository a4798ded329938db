"""The three benchmark workloads: inputs made from a seed, command lists, checks.

Each workload is a fixed list of ``voltrack`` subcommands.  ``make_plan``
writes the workload's input files (scenario configs and price CSVs) for
one input set and returns the commands together with the checks that
run on their outputs after every pass.

The seed selects one of ``INPUT_SETS`` input sets (seed mod INPUT_SETS).
The output checks compare against losses and digests that
``run.py --record`` stored in ``reference.json`` for every input set at
the seed commit, so the set of possible inputs is finite and recorded.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

INPUT_SETS = 16

WORKLOADS = ("tune", "sweep", "long_track")

# Sizes.  The tuners run thousands of filter passes per command, so the
# tune series are short enough for about five passes in a 30 s run.
TUNE_N = 125
TUNE_FILTERS = (
    ("filter0", ("--filter", "filter0")),
    ("filter1", ("--filter", "filter1")),
    ("filter2", ("--filter", "filter2")),
    ("garch11", ("--filter", "garch11")),
    ("garch22", ("--filter", "garch22")),
    ("adaptive-k2", ("--filter", "adaptive-k", "--k", "2")),
)
SWEEP_SIZES = "1000,4000,16000"
SWEEP_SEEDS = "10"
SWEEP_ORDERING_N = "4000"
SWEEP_GRID = np.geomspace(0.1, 30.0, 20)
LONG_N = 50_000

# Acceptance bands shared with tests/test_acceptance.py.
SLOPE_TARGETS = {"0": -2.0 / 3.0, "1": -4.0 / 5.0}
SLOPE_BAND = 0.25
MIN_KENDALL_TAU = 0.7


@dataclass(frozen=True)
class Observation:
    """What the checks read from one command's outputs."""

    failures: tuple[str, ...]
    losses: tuple[float, ...] = ()
    sha256: str | None = None


@dataclass(frozen=True)
class Command:
    """One CLI call and the inspection of its outputs.

    losses_capped: every loss must stay at or below its recorded value
    (tuners must not get worse).  Recorded digests, where present, must
    match byte for byte.
    """

    id: str
    argv: tuple[str, ...]
    inspect: Callable[[int, str, Path], Observation]
    losses_capped: bool = False


@dataclass
class Plan:
    workload: str
    input_set: int
    commands: list[Command] = field(default_factory=list)


def input_set_of(seed: int) -> int:
    return seed % INPUT_SETS


def _rng(workload: str, input_set: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), input_set])


def _sinusoid_config(phase: float) -> str:
    return (
        "T = 1.0\ns0 = 1.0\nmu.kind = constant\nmu.params = 0.05\n"
        f"v.kind = sinusoid\nv.params = 0.1, 0.05, 1.0, {phase!r}\n"
    )


def _write_price_csv(path: Path, v_of_t, n: int, rng: np.random.Generator) -> None:
    """Log-normal prices over [0, 1] with variance rate v_of_t and drift 0.05."""
    delta = 1.0 / n
    v = v_of_t((np.arange(n) + 0.5) * delta)
    log_returns = delta * (0.05 - 0.5 * v) + np.sqrt(delta * v) * rng.standard_normal(n)
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(log_returns))))
    lines = ["day,price"] + [f"{i},{p!r}" for i, p in enumerate(prices.tolist())]
    path.write_text("\n".join(lines) + "\n")


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _exit_failure(rc: int) -> tuple[str, ...]:
    return () if rc == 0 else (f"exit code {rc}",)


# --- tune ---------------------------------------------------------------------

def _params_from_doc(doc: dict):
    import voltrack

    if doc["kind"] == "extended":
        return voltrack.ExtendedParams(
            k=doc["k"],
            theta=doc["theta"],
            a_coeffs=tuple(doc["a_coeffs"]),
            k_level=doc["k_level"],
        )
    return voltrack.GarchParams(
        p=doc["p"],
        q=doc["q"],
        k_const=doc["k_const"],
        g_coeffs=tuple(doc["g_coeffs"]),
        a_coeffs=tuple(doc["a_coeffs"]),
    )


def _tune_inspector(csv_path: Path, delta: float, report_name: str):
    xs_cache: list = []

    def inspect(rc: int, stdout: str, out_dir: Path) -> Observation:
        if rc != 0:
            return Observation(_exit_failure(rc))
        import voltrack

        if not xs_cache:
            series = voltrack.load_prices(csv_path, delta)
            xs_cache.append(voltrack.compute_heteroscedasticity(series.prices, delta))
        report = _read_json(out_dir / report_name)
        best_sn = report["best_sn"]
        with np.errstate(over="ignore", invalid="ignore"):
            rerun = voltrack.run(xs_cache[0], _params_from_doc(report["best_params"])).s_n
        failures = ()
        if rerun != best_sn:
            failures = (f"best_sn {best_sn!r} but rerun gives {rerun!r}",)
        return Observation(failures, (best_sn,))

    return inspect


def _tune_plan(plan: Plan, in_dir: Path) -> None:
    rng = _rng("tune", plan.input_set)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    levels = np.array([0.05, 0.2, 0.1]) * rng.uniform(0.8, 1.25, 3)
    series = {
        "sinusoid": lambda t: 0.1 + 0.05 * np.sin(2.0 * math.pi * t + phase),
        "regime": lambda t: levels[np.minimum((3.0 * t).astype(int), 2)],
    }
    delta = 1.0 / TUNE_N
    for name, v_of_t in series.items():
        csv_path = in_dir / f"{name}.csv"
        _write_price_csv(csv_path, v_of_t, TUNE_N, rng)
        for filt, filter_args in TUNE_FILTERS:
            report = f"tune-{name}-{filt}.json"
            argv = (
                "tune", "--input", str(csv_path), "--delta", repr(delta),
                *filter_args, "--out", report,
            )
            plan.commands.append(
                Command(
                    f"{name}:{filt}",
                    argv,
                    _tune_inspector(csv_path, delta, report),
                    losses_capped=True,
                )
            )


# --- sweep --------------------------------------------------------------------

def _convergence_inspector(k: str, json_name: str):
    def inspect(rc: int, stdout: str, out_dir: Path) -> Observation:
        if rc != 0:
            return Observation(_exit_failure(rc))
        doc = _read_json(out_dir / json_name)
        slope = doc["fitted_slope"]
        failures = ()
        if not abs(slope - SLOPE_TARGETS[k]) <= SLOPE_BAND:
            failures = (f"k={k}: fitted slope {slope!r} outside the band",)
        return Observation(failures, tuple(doc["mse_values"]))

    return inspect


def _ordering_inspect(rc: int, stdout: str, out_dir: Path) -> Observation:
    if rc != 0:
        return Observation(_exit_failure(rc))
    doc = _read_json(out_dir / "ordering.json")
    tau = doc["kendall_tau"]
    failures = () if tau >= MIN_KENDALL_TAU else (f"kendall tau {tau!r} below the gate",)
    return Observation(failures, tuple(doc["vn_values"]))


def _sweep_plan(plan: Plan, in_dir: Path) -> None:
    rng = _rng("sweep", plan.input_set)
    cfg = in_dir / "sweep.cfg"
    cfg.write_text(_sinusoid_config(rng.uniform(0.0, 2.0 * math.pi)))
    base_seed = str(int(rng.integers(0, 1_000_000)))
    common = ("--scenario", str(cfg), "--seeds", SWEEP_SEEDS, "--base-seed", base_seed)
    for k in ("0", "1"):
        plan.commands.append(
            Command(
                f"convergence-k{k}",
                ("convergence", *common, "--k", k, "--n", SWEEP_SIZES,
                 "--out", f"conv-k{k}.csv", "--json-out", f"conv-k{k}.json"),
                _convergence_inspector(k, f"conv-k{k}.json"),
            )
        )
    grid = ",".join(repr(float(t)) for t in SWEEP_GRID)
    plan.commands.append(
        Command(
            "ordering",
            ("ordering", *common, "--theta-grid", grid, "--n", SWEEP_ORDERING_N,
             "--out", "ordering.csv", "--json-out", "ordering.json"),
            _ordering_inspect,
        )
    )


# --- long_track ---------------------------------------------------------------

def track_inspector(out_name: str):
    """Check a track run: exit 0, every v_hat finite; loss is the printed s_n."""

    def inspect(rc: int, stdout: str, out_dir: Path) -> Observation:
        if rc != 0:
            return Observation(_exit_failure(rc))
        path = out_dir / out_name
        rows = path.read_text().splitlines()[1:]
        v_hat = np.array([row.split(",")[2] for row in rows], dtype=float)
        failures = ()
        bad = np.flatnonzero(~np.isfinite(v_hat))
        if bad.size:
            failures = (f"{bad.size} non-finite v_hat, first at index {int(bad[0])}",)
        s_n = float(stdout.strip().rpartition("s_n = ")[2])
        return Observation(failures, (s_n,), _sha256(path))

    return inspect


def _simulate_inspect(rc: int, stdout: str, out_dir: Path) -> Observation:
    if rc != 0:
        return Observation(_exit_failure(rc))
    return Observation((), (), _sha256(out_dir / "path.csv"))


# Explicit parameters: one stable set per filter family, fixed across inputs.
LONG_TRACKS = (
    ("filter1", ("--theta", "2.0", "--a", "50.0", "--level", "0.1")),
    ("filter2", ("--theta", "2.0", "--a", "20.0,5.0", "--level", "0.1")),
    ("garch22", ("--level", "0.005", "--g", "0.5,0.3", "--a", "0.1,0.05")),
)


def _long_track_plan(plan: Plan, in_dir: Path, out_dir: Path) -> None:
    rng = _rng("long_track", plan.input_set)
    cfg = in_dir / "long.cfg"
    cfg.write_text(_sinusoid_config(rng.uniform(0.0, 2.0 * math.pi)))
    path_seed = str(int(rng.integers(0, 1_000_000)))
    plan.commands.append(
        Command(
            "simulate",
            ("simulate", "--scenario", str(cfg), "--n", str(LONG_N),
             "--seed", path_seed, "--out", "path.csv"),
            _simulate_inspect,
        )
    )
    for filt, params in LONG_TRACKS:
        out_name = f"track-{filt}.csv"
        plan.commands.append(
            Command(
                f"track-{filt}",
                ("track", "--input", str(out_dir / "path.csv"), "--delta",
                 repr(1.0 / LONG_N), "--filter", filt, *params, "--out", out_name),
                track_inspector(out_name),
            )
        )


def make_plan(workload: str, seed: int, in_dir: Path, out_dir: Path) -> Plan:
    """Write the workload's inputs for this seed into in_dir; return its commands.

    Outputs go to out_dir through $VOLTRACK_OUT_DIR, which the caller sets.
    """
    plan = Plan(workload, input_set_of(seed))
    if workload == "tune":
        _tune_plan(plan, in_dir)
    elif workload == "sweep":
        _sweep_plan(plan, in_dir)
    elif workload == "long_track":
        _long_track_plan(plan, in_dir, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def compare(command: Command, obs: Observation, ref: dict | None) -> list[str]:
    """Failures of one observation against its recorded reference."""
    failures = list(obs.failures)
    failures += [f"loss {v!r} not positive and finite" for v in obs.losses
                 if not (math.isfinite(v) and v > 0.0)]
    if ref is None or failures:
        return failures
    ref_losses = ref["losses"]
    if len(obs.losses) != len(ref_losses):
        return failures + [f"{len(obs.losses)} losses, recorded {len(ref_losses)}"]
    if command.losses_capped:
        for got, want in zip(obs.losses, ref_losses):
            if got > want:
                failures.append(f"loss {got!r} above the recorded {want!r}")
    if ref.get("sha256") is not None and obs.sha256 != ref["sha256"]:
        failures.append("output differs from the recorded digest")
    return failures


def loss_ratios(obs: Observation, ref: dict | None) -> list[float]:
    """log(loss / recorded loss) for every loss that has a recorded value."""
    if ref is None or len(obs.losses) != len(ref["losses"]):
        return []
    return [
        math.log(got / want)
        for got, want in zip(obs.losses, ref["losses"])
        if math.isfinite(got) and got > 0.0
    ]
