"""End-to-end benchmark of the voltrack CLI, one workload per invocation.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 30 --trace 0

One client calls ``voltrack.cli.main(argv)`` in a closed loop: the
workload's command list runs pass after pass, each command starting when
the previous one returns, for about ``--seconds`` seconds.  Inputs are
made from ``--seed`` during set-up and outputs go to a temporary
directory through $VOLTRACK_OUT_DIR.  Every output is checked after
every pass.  With ``--trace 0`` the last line is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate, and it holds the per-layer metrics of the traced passes.

``--record`` re-records ``reference.json`` (losses and digests of every
input set) at the current commit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy

from tracer import COUNTERS, PER_LAYER, Tracer, layer_metrics, median_layers
from workloads import (
    INPUT_SETS,
    WORKLOADS,
    Observation,
    compare,
    input_set_of,
    loss_ratios,
    make_plan,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ARTIFACTS = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5

# A command's time in a run is the 90th percentile of its samples over the
# timed passes.  The host switches between a fast and a slow speed about 2x
# apart and is mostly slow, sometimes fast for a whole run.  A high
# percentile lands on the slow level in nearly every run, where means and
# medians follow the mix of the two (README.md, "Noise").
COMMAND_QUANTILE = 90.0

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "quality_ratio": "ratio",
}


@dataclass
class PassResult:
    traced: bool
    wall: float
    duration: float
    latencies: list[float]
    cpu_times: list[float]
    failures: dict[str, list[str]]
    observations: list = field(default_factory=list)
    log_ratios: list[float] = field(default_factory=list)
    layers: dict[str, float] | None = None


def _invoke(argv: tuple[str, ...], tracer) -> tuple[int, str]:
    import voltrack.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                rc = voltrack.cli.main(list(argv))
            else:
                rc = tracer.call(f"cli.{argv[0]}", voltrack.cli.main, list(argv))
        except Exception:  # a crash fails this command; the run goes on
            traceback.print_exc()
            rc = -1
    return rc, stdout.getvalue()


def run_pass(plan, out_dir: Path, reference: dict | None, tracer=None) -> PassResult:
    """Run the command list once (timed), then check every output (untimed)."""
    begin = perf_counter()
    results = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = perf_counter()
        for command in plan.commands:
            c0, p0 = perf_counter(), process_time()
            rc, stdout = _invoke(command.argv, tracer)
            results.append((command, rc, stdout, perf_counter() - c0, process_time() - p0))
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures: dict[str, list[str]] = {}
    observations = []
    log_ratios: list[float] = []
    for command, rc, stdout, _, _ in results:
        try:
            obs = command.inspect(rc, stdout, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            obs = Observation((f"unreadable output: {exc!r}",))
        ref = reference.get(command.id) if reference is not None else None
        problems = compare(command, obs, ref)
        if problems:
            failures[command.id] = problems
        observations.append(obs)
        log_ratios += loss_ratios(obs, ref)
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
    return PassResult(
        traced=tracer is not None,
        wall=wall,
        duration=perf_counter() - begin,
        latencies=[r[3] for r in results],
        cpu_times=[r[4] for r in results],
        failures=failures,
        observations=observations,
        log_ratios=log_ratios,
        layers=layers,
    )


def machine_info() -> dict:
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    caches = {}
    try:
        out = subprocess.run(
            ["getconf", "-a"], capture_output=True, text=True, timeout=10
        ).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
        "caches": caches,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to inputs ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _import_voltrack() -> None:
    sys.path.insert(0, str(SRC))
    import voltrack

    where = Path(voltrack.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"voltrack imported from {where}, not from {SRC}")


def _load_reference(workload: str, input_set: int) -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        table = json.load(handle)
    return table[workload][str(input_set)]


@contextlib.contextmanager
def _workspace(prefix: str):
    """Temporary input and output directories; outputs via $VOLTRACK_OUT_DIR."""
    with tempfile.TemporaryDirectory(dir=ARTIFACTS, prefix=prefix) as tmp:
        in_dir, out_dir = Path(tmp, "in"), Path(tmp, "out")
        in_dir.mkdir()
        out_dir.mkdir()
        os.environ["VOLTRACK_OUT_DIR"] = str(out_dir)
        yield in_dir, out_dir


def _setup_probe(workload: str, seed: int) -> int:
    _import_voltrack()
    with _workspace("probe-") as (in_dir, out_dir):
        make_plan(workload, seed, in_dir, out_dir)
        print("ready", flush=True)
    return 0


def record(workloads: list[str]) -> int:
    """Run every input set once and store its losses and digests."""
    _import_voltrack()
    table = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as handle:
            table = json.load(handle)
    for workload in workloads:
        entries = {}
        for input_set in range(INPUT_SETS):
            with _workspace("record-") as (in_dir, out_dir):
                plan = make_plan(workload, input_set, in_dir, out_dir)
                result = run_pass(plan, out_dir, None)
            if result.failures:
                print(f"{workload} input set {input_set}: {result.failures}", file=sys.stderr)
                return 1
            entries[str(input_set)] = {
                cmd.id: {"losses": list(obs.losses), "sha256": obs.sha256}
                for cmd, obs in zip(plan.commands, result.observations)
            }
            print(f"{workload} input set {input_set}: {result.wall:.2f} s", flush=True)
        table[workload] = entries
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def measure(plan, out_dir: Path, reference: dict, seconds: float, trace: bool, probe=None):
    """A warm-up pass, then passes in a closed loop for about `seconds`.

    Every pass is checked; the warm-up pass (the first in the list) is left
    out of the timings.  With `trace`, traced passes alternate with untraced.
    `probe`, if given, measures set-up SETUP_PROBES times, spread over the
    window between passes so that the probes see the host as the passes do;
    time spent in probes does not count towards `seconds`.
    """
    tracer = Tracer() if trace else None
    passes = [run_pass(plan, out_dir, reference)]
    setup: list[float] = []
    probing = 0.0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start - probing
        if probe is not None and elapsed >= len(setup) * seconds / SETUP_PROBES:
            t0 = perf_counter()
            setup.append(probe())
            probing += perf_counter() - t0
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(plan, out_dir, reference, tracer if traced else None))
        typical = statistics.median(p.duration for p in passes[1:])
        done = perf_counter() - start - probing + 0.5 * typical >= seconds
        if done and len(passes) >= 3:
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return passes, tracer, setup


def command_times(samples: list[list[float]]) -> numpy.ndarray:
    """Each command's COMMAND_QUANTILE time over passes (rows are passes)."""
    return numpy.percentile(numpy.array(samples), COMMAND_QUANTILE, axis=0)


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict:
    """End-to-end metrics of untraced passes; the first is the warm-up."""
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    qualities = [math.exp(statistics.fmean(p.log_ratios)) for p in passes if p.log_ratios]
    latency = command_times([p.latencies for p in passes[1:]])
    cpu = command_times([p.cpu_times for p in passes[1:]])
    return {
        "wall_s": float(latency.sum()),
        "cmd_p50_s": float(numpy.median(latency)),
        "cmd_tail_s": float(latency.max()),
        "cpu_s": float(cpu.sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
        "ok_ratio": (attempted - failed) / attempted,
        # With no loss to compare (every command failed) quality is the worst
        # finite value, so the result stays valid JSON.
        "quality_ratio": statistics.median(qualities) if qualities else sys.float_info.max,
    }


def per_layer(passes: list[PassResult]) -> tuple[dict, list[str]]:
    """Per-layer metrics; `passes` are the timed passes, traced and untraced."""
    traced = [p.layers for p in passes if p.traced]
    problems = [
        f"counter {name} differs between traced passes"
        for name in COUNTERS
        if len({layers[name] for layers in traced}) > 1
    ]
    metrics = median_layers(traced)
    metrics["trace.overhead_s"] = float(
        command_times([p.latencies for p in passes if p.traced]).sum()
        - command_times([p.latencies for p in passes if not p.traced]).sum()
    )
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in this interpreter; print and return its result."""
    probe = None if trace else lambda: measure_setup(workload, seed)
    _import_voltrack()
    reference = _load_reference(workload, input_set_of(seed))
    with _workspace("run-") as (in_dir, out_dir):
        plan = make_plan(workload, seed, in_dir, out_dir)
        passes, tracer, setup = measure(plan, out_dir, reference, seconds, trace, probe)

    latencies = [t for p in passes for t in p.latencies]
    failed = sum(len(p.failures) for p in passes)
    problems = [f"{cid}: {msg}" for p in passes for cid, msgs in p.failures.items() for msg in msgs]
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, counter_problems = per_layer(passes[1:])
        problems += counter_problems
        units = PER_LAYER
        tracer.dump(ARTIFACTS / f"{stem}-spans.jsonl")
    else:
        metrics = end_to_end(passes, setup)
        units = END_TO_END
    machine = machine_info()

    print(f"# workload {workload}, seed {seed} (input set {plan.input_set}), "
          f"{len(passes)} passes (1 warm-up), {len(latencies)} commands, {failed} failed")
    if not trace:
        print(f"# command times are p{COMMAND_QUANTILE:g} over {len(passes) - 1} timed passes")
    for name, value in metrics.items():
        print(f"{name:<44} {value!r} {units[name]}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    print(f"# machine {json.dumps(machine)}")

    result = {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = dict(result, workload=workload, seed=seed, machine=machine,
                  setup_probes_s=setup, traced=[p.traced for p in passes],
                  pass_walls_s=[p.wall for p in passes],
                  commands=[c.id for c in plan.commands],
                  latencies_s=[p.latencies for p in passes],
                  cpu_times_s=[p.cpu_times for p in passes], problems=problems)
    (ARTIFACTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced, each in a fresh interpreter."""
    results = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{workload} exited with {proc.returncode}: {proc.stderr}")
            results[f"{workload}-trace{trace}"] = json.loads(lines[-1])
    print(f"\n{'metric':<16}" + "".join(f"{w:>22}" for w in WORKLOADS))
    for name, unit in END_TO_END.items():
        cells = [results[f"{w}-trace0"]["metrics"][name]["value"] for w in WORKLOADS]
        print(f"{name:<16}" + "".join(f"{v:>22.6g}" for v in cells) + f"  {unit}")
    cells = [results[f"{w}-trace1"]["metrics"]["trace.overhead_s"]["value"] for w in WORKLOADS]
    print(f"{'trace overhead':<16}" + "".join(f"{v:>22.6g}" for v in cells) + "  s")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "voltrack" / "__init__.py").is_file():
        print(f"error: no voltrack sources under {SRC}", file=sys.stderr)
        return 2
    ARTIFACTS.mkdir(exist_ok=True)
    if args.record:
        return record(WORKLOADS if args.workload in (None, "all") else [args.workload])
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
