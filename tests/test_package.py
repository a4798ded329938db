"""The package's public surface: each module's __all__ is its only
declaration, and `voltrack` re-exports all of them.

Star imports let a name listed by two modules shadow the other without
any error, so the lists must be disjoint.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import voltrack
from voltrack import ioutil

MODULES = [
    importlib.import_module(f"voltrack.{name}")
    for name in ("errors", "gains", "filters", "tuning", "simulate", "evaluation", "cli")
]


def test_module_lists_are_disjoint_and_resolve():
    owner = {}
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} is listed but missing"
            assert name not in owner, f"{name} is listed by {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__


def test_package_reexports_every_module_list():
    assert voltrack.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(voltrack, name) is getattr(module, name)


def readme_rows() -> dict[str, str]:
    """README's library table: module name -> the text of its row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(voltrack\.\w+)` +\|(.*)\|$", readme, flags=re.M)
    return dict(rows)


@pytest.mark.parametrize("module", [*MODULES, ioutil], ids=lambda m: m.__name__)
def test_readme_table_names_every_public_name(module):
    row = readme_rows()[module.__name__]
    missing = [n for n in module.__all__ if not re.search(rf"`{n}(\W|$)", row)]
    assert not missing, f"README's {module.__name__} row omits {missing}"


def run_fresh(code: str) -> str:
    """Standard output of code run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    # no module imports scipy.stats: ordering computes Kendall's tau itself,
    # and the linear-filter kernel is loaded without scipy.signal
    assert run_fresh("import sys, voltrack; print('scipy.stats' in sys.modules)") == "False\n"


HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.stats", "scipy.sparse", "scipy.special")


def test_import_leaves_heavy_scipy_unloaded():
    # each of these is imported only inside the code that calls it
    code = f"import sys, voltrack; print([m for m in {HEAVY!r} if m in sys.modules])"
    assert run_fresh(code) == "[]\n"


SCENARIO = """\
mu.kind = constant
mu.params = 0.05
v.kind = sinusoid
v.params = 0.09, 0.04, 2.0, 0.3
"""
TRACK = ("track", "--scenario", "s.cfg", "--n", "300", "--out", "est.csv", "--filter")


def run_command_fresh(tmp_path, argv) -> tuple[int, list[str]]:
    """Exit code of `voltrack argv` run in a fresh interpreter inside
    tmp_path, and which of HEAVY it left loaded.  tmp_path holds the
    scenario s.cfg and path.csv, a path simulated from it."""
    (tmp_path / "s.cfg").write_text(SCENARIO)
    path = voltrack.generate_path(voltrack.parse_scenario_config(SCENARIO), 300, 0)
    (tmp_path / "path.csv").write_text(voltrack.path_csv_text(path))
    code = f"""
import json, os, sys
os.chdir({str(tmp_path)!r})
os.environ.pop("VOLTRACK_OUT_DIR", None)
import voltrack.cli
rc = voltrack.cli.main({list(argv)!r})
print(json.dumps([rc, [m for m in {HEAVY!r} if m in sys.modules]]))
"""
    return tuple(json.loads(run_fresh(code).splitlines()[-1]))


COMMANDS = {
    "track-filter1": (*TRACK, "filter1", "--theta", "2.0", "--a", "5.0", "--level", "0.1"),
    "track-filter2": (*TRACK, "filter2", "--theta", "2.0", "--a", "2.0,0.5", "--level", "0.1"),
    "track-garch22": (
        *TRACK, "garch22", "--level", "0.005", "--g", "0.5,0.3", "--a", "0.1,0.05"
    ),
    # a simulated path CSV of about 23 kB, which the compiled price reader reads
    "track-input": (
        "track", "--input", "path.csv", "--filter", "filter1", "--theta", "2.0", "--a", "5.0",
        "--level", "0.1", "--out", "est.csv",
    ),
    "simulate": ("simulate", "--scenario", "s.cfg", "--n", "300", "--out", "path.csv"),
    "convergence": (
        "convergence", "--scenario", "s.cfg", "--n", "100,300,1000", "--seeds", "10",
        "--out", "conv.csv",
    ),
    "ordering": (
        "ordering", "--scenario", "s.cfg", "--theta-grid", "0.1,0.2,0.5,1,2,3,5,8,13,21",
        "--n", "300", "--seeds", "10", "--out", "ord.csv",
    ),
    "tune-filter1": (
        "tune", "--scenario", "s.cfg", "--n", "300", "--filter", "filter1",
        "--out", "report.json",
    ),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_commands_leave_heavy_scipy_unloaded(tmp_path, name):
    assert run_command_fresh(tmp_path, COMMANDS[name]) == (0, [])


@pytest.mark.parametrize("kind", ["garch22", "filter2"])
def test_nelder_mead_tuners_load_optimize_and_linalg(tmp_path, kind):
    argv = ("tune", "--scenario", "s.cfg", "--n", "300", "--filter", kind,
            "--out", "report.json")
    rc, loaded = run_command_fresh(tmp_path, argv)
    assert rc == 0
    assert {"scipy.optimize", "scipy.linalg"} <= set(loaded)
    assert "scipy.stats" not in loaded


def test_sampling_leaves_scipy_integrate_unloaded():
    # the quadrature writes Simpson's sum out in NumPy
    code = """
import sys
import voltrack
mu = voltrack.FuncSpec("constant", (0.05,))
scenario = voltrack.Scenario(mu, voltrack.FuncSpec("sinusoid", (0.1, 0.05, 1.0, 0.0)))
voltrack.generate_path(scenario, 100, 1)
print('scipy.integrate' in sys.modules)
"""
    assert run_fresh(code) == "False\n"


def test_compiled_first_order_loads_neither_scipy_signal_nor_scipy_stats():
    # A pure k=0 run takes the compiled kernel from its extension file, so
    # scipy.signal (whose __init__ loads scipy.stats) stays unloaded; the
    # kernel is the private one, not the public lfilter as a fallback, and
    # scipy.signal still imports and filters afterwards.
    code = """
import sys
import voltrack
from voltrack.filters import _linear_filter
voltrack.run([0.1, 0.3, 0.2, 0.25], voltrack.ExtendedParams(k=0, theta=0.8, a_coeffs=(0.0,)))
print('scipy.signal' in sys.modules, 'scipy.stats' in sys.modules)
kernel = _linear_filter()
print(kernel.__name__, kernel.__module__)
import scipy.signal
y, zf = scipy.signal.lfilter([0.0, 0.5], [1.0, -0.5], [1.0, 2.0, 4.0], zi=[0.25])
print(y.tolist(), zf.tolist(), kernel is not scipy.signal.lfilter)
"""
    assert run_fresh(code) == (
        "False False\n"
        "_linear_filter scipy.signal._sigtools\n"
        "[0.25, 0.625, 1.3125] [2.65625] True\n"
    )
