"""Command-line front end.

Subcommands: verify, entropy, search, code2graph, qss, composite,
export, repro. Exit codes: 0 success / all checks pass, 1 a checked
property fails (e.g. the graph is not AME), 2 usage or input errors
(an unreadable input, an unwritable --out).
All randomized subcommands require an explicit --seed.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from . import codes, composite, entanglement, qss, repro, search, simulator
from .graph import (
    circuit_from_graph,
    format_circuit,
    format_graph,
    format_graph_line,
    load_graph,
    to_dot,
)


class UsageError(ValueError):
    pass


def _load(path: str):
    try:
        return load_graph(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read graph {path!r}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from exc


def _vertices(text: str, n: int) -> tuple[int, ...]:
    """A comma-separated 1-indexed vertex list, checked for range and
    repeats in that numbering; returned 0-indexed."""
    vertices = [int(v) for v in text.split(",")]
    for i, v in enumerate(vertices):
        if not 1 <= v <= n:
            raise UsageError(f"vertex {v} is not in [1, {n}]")
        if v in vertices[:i]:
            raise UsageError(f"vertex {v} is given twice")
    return tuple(v - 1 for v in vertices)


def cmd_verify(args) -> int:
    g = _load(args.graph)
    report = entanglement.is_ame(g, full=args.full)
    sys.stdout.write(entanglement.format_report(report))
    if args.oracle:
        try:
            state = simulator.build_graph_state(g)
        except simulator.TooLargeError:
            print("ORACLE skipped (state too large)")
        else:
            worst = 0.0
            for cut in report.cut_ranks:
                ent = simulator.cut_entropy_edits(state, cut)
                worst = max(worst, abs(ent - report.cut_ranks[cut]))
            agree = worst <= 1e-6
            print(f"ORACLE {'agree' if agree else 'DISAGREE'} max|delta|={worst:.2e}")
            if not agree:
                return 1
    return 0 if report.is_ame else 1


def cmd_entropy(args) -> int:
    g = _load(args.graph)
    if args.cut:
        cuts = [_vertices(args.cut, g.n)]
    else:
        cuts = list(itertools.combinations(range(g.n), g.n // 2))
    state = None
    if args.oracle:
        state = simulator.build_graph_state(g)
    for cut in cuts:
        rank = entanglement.cut_edits(g, cut)
        line = f"CUT {{{','.join(str(v + 1) for v in cut)}}} RANK {rank}"
        if state is not None:
            ent = f"{simulator.cut_entropy_edits(state, cut):.6f}"
            line += f" ENTROPY {'0.000000' if ent == '-0.000000' else ent}"  # a rank-0 cut's -0.0 or -1e-16
        print(line)
    return 0


def cmd_search(args) -> int:
    if args.mode == "random" and args.seed is None:
        raise UsageError("random mode requires --seed")
    spec = search.SearchSpec(
        n=args.n * args.group_size,
        p=args.p,
        mode=args.mode,
        group_size=args.group_size,
        seed=args.seed,
        samples=args.samples,
        budget=args.budget,
        weights_one=args.weights_one,
        dense_bias=args.dense_bias,
        prune_rescale=args.prune_rescale,
        prune_canonical=args.prune_canonical,
    )
    result = search.run(spec)
    if args.out:
        header = (f"# search n={args.n} p={args.p} mode={args.mode} "
                  f"group_size={args.group_size} seed={args.seed}\n")
        _write(args.out, header + "".join(format_graph_line(g) + "\n" for g in result.witnesses))
    else:
        for g in result.witnesses:
            print(format_graph_line(g))
    if args.stats:
        print(result.stats_line())
    return 0


def cmd_code2graph(args) -> int:
    try:
        if args.code_file:
            with open(args.code, encoding="utf-8") as fh:
                code = codes.parse_code(fh.read())
        else:
            code = codes.get_code(args.code)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    try:
        m, g = codes.certified(code)
    except codes.NotAmeCodeError as exc:
        print(f"FAIL {exc}")
        return 1
    text = format_graph(g)
    if args.out:  # written before anything is printed, so a refused path prints nothing
        _write(args.out, text)
    if args.matrix:
        from .stabilizer import format_generator_matrix

        sys.stdout.write(format_generator_matrix(m))
    if not args.out:
        sys.stdout.write(text)
    return 0


def cmd_qss(args) -> int:
    g = _load(args.graph)
    dealers = _vertices(args.dealers, g.n)
    rng = np.random.default_rng(args.seed)
    if args.mode == "threshold":
        if len(dealers) != 1:
            raise UsageError("threshold mode takes one dealer")
        scheme = qss.ThresholdScheme(g, dealers[0])
    else:
        scheme = qss.RampScheme(g, dealers)
    ok = True
    for kind, players, value in qss.audit(scheme, args.secrets, rng):
        if kind == "AUTH":
            passed, shown = value >= 1 - 1e-9, f"fidelity_min={value:.9f}"
        else:
            # round-off at or below 1e-12 prints as that bound: its digits depend on the BLAS build
            passed = value <= 1e-9
            shown = "distance_max<=1e-12" if value <= 1e-12 else f"distance_max={value:.2e}"
        ok = ok and passed
        vset = ",".join(str(v + 1) for v in players)
        print(f"{kind} {{{vset}}} {shown} {'PASS' if passed else 'FAIL'}")
    print("ALL PASS" if ok else "ALL FAIL")
    return 0 if ok else 1


def cmd_composite(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            text = fh.read()
        from pathlib import Path

        comp = composite.parse_manifest(text, Path(args.manifest).parent)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    report = composite.verify_composite(comp)
    sys.stdout.write(composite.format_report(comp, report))
    return 0 if report.is_ame else 1


def cmd_export(args) -> int:
    g = _load(args.graph)
    if args.dot:
        sys.stdout.write(to_dot(g))
    else:
        sys.stdout.write(format_circuit(circuit_from_graph(g)))
    return 0


def cmd_repro(args) -> int:
    if args.criterion is not None and not 1 <= args.criterion <= len(repro.CHECKS):
        raise UsageError(f"criterion must be in 1..{len(repro.CHECKS)}")
    only = {args.criterion} if args.criterion else None
    results = repro.run_all(quick=args.quick, only=only)
    failed = False
    for res in results:
        print(res.line())
        for warning in res.warnings:
            print(f"  WARN {warning}")
        if res.status == "FAIL":
            failed = True
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="amegraph", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check whether a graph state is AME")
    v.add_argument("graph")
    v.add_argument("--oracle", action="store_true", help="cross-check against dense entropies")
    v.add_argument("--full", action="store_true", help="record every cut size")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("entropy", help="cut ranks (and dense entropies) of a graph")
    e.add_argument("graph")
    e.add_argument("--cut", help="comma-separated 1-indexed vertex set")
    e.add_argument("--oracle", action="store_true")
    e.set_defaults(func=cmd_entropy)

    s = sub.add_parser("search", help="exhaustive or random AME search")
    s.add_argument("--n", type=int, required=True, help="parties")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    s.add_argument("--group-size", type=int, default=1)
    s.add_argument("--seed", type=int)
    s.add_argument("--samples", type=int, default=10**6)
    s.add_argument("--budget", type=int, default=1 << 23)
    s.add_argument("--weights-one", action="store_true")
    s.add_argument("--dense-bias", action="store_true")
    s.add_argument("--prune-rescale", action="store_true")
    s.add_argument("--prune-canonical", action="store_true")
    s.add_argument("--out")
    s.add_argument("--stats", action="store_true")
    s.set_defaults(func=cmd_search)

    c = sub.add_parser("code2graph", help="MDS code to AME graph")
    c.add_argument("code", help="hamming433, grs:p,n,k, or a file with --code-file")
    c.add_argument("--code-file", action="store_true")
    c.add_argument("--matrix", action="store_true", help="also print the stabilizer matrix")
    c.add_argument("--out")
    c.set_defaults(func=cmd_code2graph)

    q = sub.add_parser("qss", help="audit a secret sharing scheme")
    q.add_argument("--graph", required=True)
    q.add_argument("--mode", choices=("threshold", "ramp"), required=True)
    q.add_argument("--dealers", default="1", help="comma-separated 1-indexed dealers")
    q.add_argument("--secrets", type=int, default=5)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=cmd_qss)

    m = sub.add_parser("composite", help="composite-dimension constructions")
    m.add_argument("action", choices=("verify",))
    m.add_argument("manifest")
    m.set_defaults(func=cmd_composite)

    x = sub.add_parser("export", help="emit DOT or a preparation circuit")
    x.add_argument("graph")
    grp = x.add_mutually_exclusive_group(required=True)
    grp.add_argument("--dot", action="store_true")
    grp.add_argument("--circuit", action="store_true")
    x.set_defaults(func=cmd_export)

    r = sub.add_parser("repro", help="run the reproduction checklist")
    r.add_argument("--quick", action="store_true", help="skip the 7-qubit exhaustive run")
    r.add_argument("--criterion", type=int, help="run a single criterion")
    r.set_defaults(func=cmd_repro)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
