"""Per-layer tracing from outside the library.

The tracer replaces public functions of amegraph's modules with wrappers
that record one span per call: name, start, end, parent span and the
benchmark phase ("setup" or "pass"). A wrapper is patched into the
defining module and into every amegraph module that bound the same
function with `from .x import f`, so calls through either name are seen.
Nothing under `src/` changes; `uninstall` puts the originals back.

A layer's self time is the time its spans cover minus the time covered by
their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def _rank_batch_matrices(mats, p):
    return "gfp.rank_batch.matrices", int(np.shape(mats)[0])


def _codewords(c, *args, **kwargs):
    return "codes.codewords_enumerated", c.p**c.k


def _amplitudes(g, *args, **kwargs):
    return "simulator.amplitudes_built", g.p**g.n


def _dense_bytes(p, x, *args, **kwargs):
    n = int(np.shape(x)[1])
    return "simulator.stabilizer_dense_bytes", n * p ** (2 * n) * 16


# (module, function, counter derived from the call's arguments)
TRACED = [
    ("gfp", "rank_batch", _rank_batch_matrices),
    ("gfp", "rank_gf2", None),
    ("gfp", "row_reduce", None),
    ("gfp", "mat_rank", None),
    ("graph", "canonical_form", None),
    ("graph", "canonical_form_grouped", None),
    ("entanglement", "is_ame", None),
    ("entanglement", "is_ame_grouped", None),
    ("entanglement", "cut_edits", None),
    ("simulator", "graph_state_amplitudes", _amplitudes),
    ("simulator", "build_graph_state", None),
    ("simulator", "build_labeled", None),
    ("simulator", "cut_entropy_edits", None),
    ("simulator", "reduced_density", None),
    ("simulator", "stabilizer_state", _dense_bytes),
    ("simulator", "z_measure_dense", None),
    ("stabilizer", "to_graph", None),
    ("codes", "code_to_ame_graph", None),
    ("codes", "min_distance", _codewords),
    ("search", "enumerate_graphs", None),
    ("search", "random_search", None),
    ("qss", "encode", None),
    ("qss", "recovery_map", None),
    ("qss", "run_threshold", None),
    ("qss", "run_ramp", None),
    ("qss", "audit_forbidden", None),
]

LAYERS = ("gfp", "graph", "entanglement", "simulator", "stabilizer", "codes", "search", "qss")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, phase), indexed by span id
        self.counts: dict[str, Counter] = defaultdict(Counter)  # phase -> counter
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def wrap(self, name, fn, counter=None):
        spans, lock, local = self.spans, self._lock, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if counter is not None:
                key, value = counter(*args, **kwargs)
                with lock:
                    self.counts[phase][key] += value
            with lock:
                sid = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, phase)

        return traced

    def install(self, lib) -> None:
        """Patch every TRACED function and count Graph constructions."""
        modules = [m for k, m in sys.modules.items() if k == "amegraph" or k.startswith("amegraph.")]
        for mod_name, fn_name, counter in TRACED:
            orig = getattr(getattr(lib, mod_name), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    self._undo.append((mod, fn_name, orig))
        graph_cls = lib.graph.Graph
        post_init = graph_cls.__post_init__

        def counted_post_init(g):
            if self.phase is not None:
                with self._lock:
                    self.counts[self.phase]["graph.graphs_built"] += 1
            return post_init(g)

        graph_cls.__post_init__ = counted_post_init
        self._undo.append((graph_cls, "__post_init__", post_init))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block, e.g. while the benchmark checks
        an output with library calls of its own."""
        phase, self.phase = self.phase, None
        try:
            yield
        finally:
            self.phase = phase

    def uninstall(self) -> None:
        while self._undo:
            obj, name, orig = self._undo.pop()
            setattr(obj, name, orig)

    def summary(self, phase: str) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name, for spans of one phase."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid, (name, t0, t1, _, ph) in enumerate(self.spans):
            if ph == phase:
                calls[name] += 1
                self_s[name] += (t1 - t0) - child[sid]
        return calls, self_s

    def calls_under(self, phase: str, names, parents) -> int:
        """Calls of any of `names` made directly from a span in `parents`."""
        n = 0
        for name, _, _, parent, ph in self.spans:
            if ph == phase and name in names and parent is not None:
                n += self.spans[parent][0] in parents
        return n

    def write(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent, phase]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(t0, 9), round(t1, 9), parent, phase]) + "\n")
