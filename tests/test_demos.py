"""Demo scripts, README's Python session and README's `voltrack`
commands: each runs from a checkout, exits 0 and writes nothing to stderr.

The demos drive the public API end to end (gain design, simulation and
tracking, the rate study and the staged tuners), so a change that breaks
one of them, or the README session or commands, or makes it warn, fails
here.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import readme_commands

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def assert_runs_cleanly(args, cwd) -> None:
    """Run a fresh interpreter on args in cwd, with src/ as PYTHONPATH;
    it must exit 0 and write nothing to stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, (args, proc.stderr)
    assert proc.stderr == "", args


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    assert_runs_cleanly([str(demo)], tmp_path)


def test_readme_python_session_runs_cleanly(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (session,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert_runs_cleanly(["-c", session], tmp_path)


def test_readme_commands_run_cleanly(tmp_path):
    # the inputs the commands name: README's scenario block (its one fence
    # without a language) and three simulated price files
    readme = (ROOT / "README.md").read_text()
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.M | re.S)
    (scenario,) = [body for lang, body in fences if not lang]
    (tmp_path / "scen.cfg").write_text(scenario)
    for out, n, seed in (("prices.csv", 500, 0), ("a.csv", 300, 1), ("b.csv", 300, 2)):
        simulate = f"simulate --scenario scen.cfg --n {n} --seed {seed} --out {out}"
        assert_runs_cleanly(["-m", "voltrack", *simulate.split()], tmp_path)
    commands = readme_commands()
    assert commands
    for command in commands:
        assert_runs_cleanly(["-m", "voltrack", *shlex.split(command)[1:]], tmp_path)
