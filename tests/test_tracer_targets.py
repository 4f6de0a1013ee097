"""The benchmark tracer's targets exist in the package.

perfbench/tracing.py wraps kg-hierarchy functions by module and attribute name.
Tracer.install raises AttributeError on a name that is gone, which breaks every
traced benchmark run, so a rename in the package must show up here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kg_hierarchy.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a fresh module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves(name):
    modname, path, _ = TARGETS[name]
    obj = importlib.import_module(modname)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


@pytest.mark.parametrize("command", ["spectrum", "wavefunction", "verify", "sweep"])
def test_dispatch_holds_the_run_functions(command):
    # The tracer reaches the run functions through this dict.
    assert cli._DISPATCH[command] is getattr(cli, f"run_{command}")
