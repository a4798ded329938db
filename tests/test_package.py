"""The package's public surface: each module's __all__ is its only
declaration, and `voltrack` re-exports all of them.

Star imports let a name listed by two modules shadow the other without
any error, so the lists must be disjoint.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import voltrack

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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is imported only inside ordering_agreement, because it
    # dominates the import time of every command that does not use it
    code = "import sys, voltrack; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
