"""Self-checks of the benchmark.

    python3 -m pytest perfbench/selftest.py

The file name does not match ``test_*.py``, so the repository's own test
run does not collect it: the counter check below runs every workload
traced, twice, which takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from tracer import COUNTERS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, track_inspector  # noqa: E402


def _bench(script: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    counters = []
    for _ in range(2):
        proc = _bench(HERE / "run.py", "--workload", workload, "--seed", "5",
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        counters.append({name: result["metrics"][name]["value"] for name in COUNTERS})
    assert counters[0] == counters[1]
    assert counters[0]["filters.run.calls"] > 0


def test_track_check_flags_the_divergent_filter0(tmp_path, monkeypatch):
    from voltrack.cli import main

    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "mu.kind = constant\nmu.params = 0.05\n"
        "v.kind = sinusoid\nv.params = 0.1, 0.05, 1.0, 0.0\n"
    )
    monkeypatch.setenv("VOLTRACK_OUT_DIR", str(tmp_path))

    def track(theta: str, out: str):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["track", "--scenario", str(cfg), "--n", "4000",
                       "--filter", "filter0", "--theta", theta, "--out", out])
        return track_inspector(out)(rc, stdout.getvalue(), tmp_path), rc

    diverged, rc = track("1000", "diverged.csv")
    assert rc == 0  # the CLI itself does not report the divergence
    assert any("non-finite v_hat" in failure for failure in diverged.failures)
    healthy, rc = track("1.0", "healthy.csv")
    assert rc == 0 and healthy.failures == ()


def test_metric_tables_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path / "perfbench" / "run.py", "--workload", "tune",
                  "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
