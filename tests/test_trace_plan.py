"""The benchmark's per-layer trace still finds every function it wraps.

``perfbench/run.py`` traces dapien by replacing module attributes; a
renamed or moved function would make its traced runs fail, so every
``(module, attribute)`` of its plan must resolve in the package.
"""

import importlib.util
import os
import sys
from pathlib import Path

import dapien
import dapien.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_run_module():
    """Import perfbench/run.py, undoing its path and environment changes."""
    saved_env = dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        os.environ.clear()
        os.environ.update(saved_env)
    return module


def test_every_traced_attribute_resolves():
    plan = load_run_module().trace_plan(dapien)
    assert plan
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in plan
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
