"""The benchmark's tracer patches library functions by name; each one it
names must still exist, so a rename or deletion fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, fn) for mod, fn, _ in tracer.TRACED]


@pytest.mark.parametrize("mod,fn", _traced())
def test_traced_function_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"amegraph.{mod}"), fn, None))
