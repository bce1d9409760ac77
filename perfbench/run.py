"""amegraph benchmark: one workload per run, output checked, metrics as JSON.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run it from the repository root: it imports amegraph from ./src and exits
with code 2, printing no result, if that is not possible. --trace 0
prints the end-to-end metrics; --trace 1 patches the library's public
functions (tracer.py), prints the per-layer metrics and writes the spans to
perfbench/out/. The last stdout line is the result object; the line
before it holds the machine info. --tiny shrinks every input (tests only).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads: the workers=2 scan is then the
# only threaded operation, and small dense solves do not wait on the
# second CPU. A value already in the environment is kept (and recorded).
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("gfp", "graph", "entanglement", "simulator", "stabilizer", "codes", "search", "qss", "witnesses")
SETUP_REPS = 7
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "pass_ref": "ref", "work_per_ref": "1/ref", "peak_rss_mb": "MB"}
TRACED_FUNCTIONS = [
    "graph.canonical_form", "graph.canonical_form_grouped",
    "gfp.rank_batch", "gfp.rank_gf2", "gfp.row_reduce",
    "entanglement.is_ame", "entanglement.cut_edits", "entanglement.is_ame_grouped",
    "codes.code_to_ame_graph", "stabilizer.to_graph",
    "simulator.cut_entropy_edits", "simulator.build_graph_state",
    "simulator.stabilizer_state", "simulator.z_measure_dense",
    "qss.run_threshold", "qss.run_ramp", "qss.audit_forbidden", "qss.recovery_map", "qss.encode",
]
PER_LAYER = {
    "trace.overhead_s": "s", "failed_share": "ratio",
    "search.calls": "count", "search.examined": "count", "search.pruned": "count",
    "search.prune_share": "ratio", "search.raw_witnesses": "count", "search.classes": "count",
    "search.dedupe_ratio": "ratio", "search.unreported_s": "s", "search.rate_ratio": "ratio",
    "graph.graphs_built": "count", "gfp.rank_batch.matrices": "count", "gfp.mat_rank.calls": "count",
    "entanglement.cuts_per_cert": "ratio", "codes.min_distance.self_s": "s",
    "codes.codewords_enumerated": "count", "simulator.amplitudes_built": "count",
    "simulator.stabilizer_dense_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    **{f"{fn}.{what}": unit for fn in TRACED_FUNCTIONS for what, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"setup.{layer}.self_s": "s" for layer in tracing.LAYERS},
    "setup.gfp.rank_gf2.calls": "count", "setup.gfp.rank_gf2.self_s": "s",
    "setup.gfp.rank_batch.calls": "count", "setup.gfp.rank_batch.matrices": "count",
    "setup.gfp.rank_batch.self_s": "s",
}


def import_library() -> SimpleNamespace:
    """Import amegraph from ./src afresh, so its caches start empty."""
    for name in [m for m in sys.modules if m == "amegraph" or m.startswith("amegraph.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("amegraph")
    if Path(pkg.__file__).resolve().parent != SRC / "amegraph":
        raise ImportError(f"amegraph imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"amegraph.{m}") for m in MODULES})


@dataclass
class Sample:
    latency: float
    ok: bool
    work: int | None
    search: tuple | None  # (examined, pruned, classes, elapsed) of a SearchResult


def run_op(op, lib, tracer=None) -> Sample:
    call = tracer.wrap(f"bench.{op.kind.split()[0]}", op.run) if tracer else op.run
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception:  # a failing operation is counted, not fatal
        latency = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Sample(latency, False, None, None)
    latency = time.perf_counter() - t0
    try:
        with tracer.paused() if tracer else contextlib.nullcontext():
            ok = bool(op.check(out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"perfbench: check failed: {op.kind}", file=sys.stderr)
    search = None
    if isinstance(out, lib.search.SearchResult):
        search = (out.examined, out.pruned, len(out.witnesses), out.elapsed)
    return Sample(latency, ok, op.work(out) if op.work and ok else None, search)


def measure(ops, lib, seconds: float, min_passes: int, tracer=None, sampler=None) -> list[list[Sample]]:
    """Whole passes over the op list until `seconds` have gone by; the
    sampler, if given, times the yardstick between operations."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        p = []
        for op in ops:
            if sampler:
                sampler.maybe()
            p.append(run_op(op, lib, tracer))
        passes.append(p)
    return passes


def set_up(name: str, seed: int, tiny: bool, tr=None):
    """Import, generate inputs from the seed, warm every distinct operation."""
    lib = import_library()
    if tr:
        tr.install(lib)
    wl = workloads.WORKLOADS[name](lib, np.random.default_rng(seed), tiny)
    for warm in wl.warmups:
        warm()
    if tr:
        tr.uninstall()
    return lib, wl


def tail(xs):
    """(percentile, value) of a list of latencies: the highest percentile
    with at least ten values beyond it, or the largest value when there are
    ten or fewer."""
    xs = sorted(xs)
    if len(xs) <= 10:
        return 100.0, xs[-1]
    return 100.0 * (len(xs) - 10) / len(xs), xs[len(xs) - 11]


def pass_wall(p) -> float:
    return sum(s.latency for s in p)


def end_to_end(setups, passes, ticks):
    """The gated metrics, and the raw times that go to `info`.

    Pass times are divided by the median yardstick timing of the same run
    (yardstick.py), which cancels the host's speed swings. An operation's
    latency is its median over the run's passes; the typical and tail
    latencies are taken over those, one per operation. With few distinct
    operations, a percentile of all samples pooled would sit in the gap
    between two of them and jump across it."""
    stick = statistics.median(ticks)
    wall = statistics.median(map(pass_wall, passes))
    work = statistics.median(sum(s.work or 0 for s in p) for p in passes)
    per_op = [statistics.median(s.latency for s in runs) for runs in zip(*passes)]
    p50 = statistics.median(per_op)
    pct, slow = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_ref": wall / stick,
        "work_per_ref": work * stick / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "yardstick_ms": stick * 1e3, "yardstick_samples": len(ticks),
        "wall_s": wall, "work_per_pass": work, "work_per_s": work / wall,
        "ops_per_s": len(per_op) / wall,
        "op_p50_ms": p50 * 1e3, "op_tail_ms": slow * 1e3, "tail_percentile": round(pct, 2),
        "latency_samples": sum(map(len, passes)),
    }
    return metrics, raw


def search_stats(passes):
    """Per pass: examined, pruned, classes; unreported wall time; rate ratio."""
    rows = [(s.latency, *s.search) for p in passes for s in p if s.search]
    k = len(passes)
    if not rows:
        return {"examined": 0, "pruned": 0, "classes": 0, "unreported_s": 0.0, "rate_ratio": 0.0}
    wall = sum(r[0] for r in rows)
    examined, pruned, classes, elapsed = (sum(r[i] for r in rows) for i in (1, 2, 3, 4))
    stats_rate = examined / elapsed  # what the stats line's rate= reports
    measured = (examined + pruned) / wall  # graphs_per_s
    return {
        "examined": examined / k, "pruned": pruned / k, "classes": classes / k,
        "unreported_s": statistics.median(
            sum(s.latency - s.search[3] for s in p if s.search) for p in passes),
        "rate_ratio": stats_rate / measured,
    }


def per_layer(tr, untraced, traced):
    k = len(traced)
    calls, self_s = tr.summary("pass")
    counts = tr.counts["pass"]
    m = {}
    for fn in TRACED_FUNCTIONS:
        m[f"{fn}.calls"] = calls[fn] / k
        m[f"{fn}.self_s"] = self_s[fn] / k
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(v for n, v in self_s.items() if n.startswith(layer + ".")) / k
    s = search_stats(untraced)
    searches = ("search.enumerate_graphs", "search.random_search")
    raw = tr.calls_under("pass", {"graph.canonical_form", "graph.canonical_form_grouped"}, searches) / k
    certs = ("entanglement.is_ame", "entanglement.is_ame_grouped")
    cert_calls = sum(calls[c] for c in certs)
    m.update({
        "search.calls": sum(calls[c] for c in searches) / k,
        "search.examined": s["examined"], "search.pruned": s["pruned"],
        "search.prune_share": s["pruned"] / max(s["examined"] + s["pruned"], 1),
        "search.raw_witnesses": raw, "search.classes": s["classes"],
        "search.dedupe_ratio": s["classes"] / raw if raw else 0.0,
        "search.unreported_s": s["unreported_s"], "search.rate_ratio": s["rate_ratio"],
        "graph.graphs_built": counts["graph.graphs_built"] / k,
        "gfp.rank_batch.matrices": counts["gfp.rank_batch.matrices"] / k,
        "gfp.mat_rank.calls": calls["gfp.mat_rank"] / k,
        "entanglement.cuts_per_cert":
            tr.calls_under("pass", {"entanglement.cut_edits"}, certs) / cert_calls if cert_calls else 0.0,
        "codes.min_distance.self_s": self_s["codes.min_distance"] / k,
        "codes.codewords_enumerated": counts["codes.codewords_enumerated"] / k,
        "simulator.amplitudes_built": counts["simulator.amplitudes_built"] / k,
        "simulator.stabilizer_dense_bytes": counts["simulator.stabilizer_dense_bytes"] / k,
        "trace.overhead_s": statistics.median(map(pass_wall, traced))
        - statistics.median(map(pass_wall, untraced)),
    })
    setup_calls, setup_self = tr.summary("setup")
    for layer in tracing.LAYERS:
        m[f"setup.{layer}.self_s"] = sum(v for n, v in setup_self.items() if n.startswith(layer + "."))
    m.update({
        "setup.gfp.rank_gf2.calls": setup_calls["gfp.rank_gf2"],
        "setup.gfp.rank_gf2.self_s": setup_self["gfp.rank_gf2"],
        "setup.gfp.rank_batch.calls": setup_calls["gfp.rank_batch"],
        "setup.gfp.rank_batch.matrices": tr.counts["setup"]["gfp.rank_batch.matrices"],
        "setup.gfp.rank_batch.self_s": setup_self["gfp.rank_batch"],
    })
    return m


def machine_info(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREADS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every input (tests only)")
    args = ap.parse_args(argv)
    info = machine_info(args)

    try:
        if args.trace:
            tr = tracing.Tracer()
            t0 = time.perf_counter()
            lib, wl = set_up(args.workload, args.seed, args.tiny, tr)
            setups = [time.perf_counter() - t0]
            untraced = measure(wl.ops, lib, args.seconds / 2, 2)
            tr.install(lib)
            tr.phase = "pass"
            traced = measure(wl.ops, lib, args.seconds / 2, 2, tr)
            tr.uninstall()
            passes = untraced + traced
        else:
            setups = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                lib, wl = set_up(args.workload, args.seed, args.tiny)
                setups.append(time.perf_counter() - t0)
            for _ in range(3):
                yardstick.yardstick()
            sampler = yardstick.Sampler()
            passes = measure(wl.ops, lib, args.seconds, MIN_PASSES, sampler=sampler)
    except ImportError as exc:
        print(f"perfbench: cannot import amegraph from {SRC}: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p) for p in passes)
    failed = sum(not s.ok for p in passes for s in p)
    info.update(setups_s=setups, pass_walls_s=[pass_wall(p) for p in passes],
                ops_per_pass=len(wl.ops),
                work_is=wl.work_name, failed_share=failed / attempted)
    if args.trace:
        metrics = per_layer(tr, untraced, traced)
        metrics["failed_share"] = failed / attempted
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write(spans_file)
        info.update(traced_passes=len(traced), spans=len(tr.spans), spans_file=str(spans_file.relative_to(ROOT)))
        units = PER_LAYER
    else:
        metrics, raw = end_to_end(setups, passes, sampler.samples)
        info.update(raw)
        units = END_TO_END
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
