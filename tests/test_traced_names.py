"""The benchmark patches library functions by name and runs its workloads
on the library's public surface; each name it reads must still exist and
each operation must still pass its check, so a rename, deletion or
changed signature fails here first."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import amegraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, fn) for mod, fn, _ in tracer.TRACED]


@pytest.mark.parametrize("mod,fn", _traced())
def test_traced_function_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"amegraph.{mod}"), fn, None))


def test_benchmark_workloads_pass_at_tiny_size(monkeypatch):
    # the library as already imported: the benchmark's own import_library
    # would purge it from sys.modules under the other tests
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    lib = SimpleNamespace(**{m.name: importlib.import_module(f"amegraph.{m.name}")
                             for m in pkgutil.iter_modules(amegraph.__path__)})
    for name, build in workloads.WORKLOADS.items():
        wl = build(lib, np.random.default_rng(0), True)
        for warm in wl.warmups:
            warm()
        for op in wl.ops:
            assert op.check(op.run()), f"{name}: {op.kind}"
