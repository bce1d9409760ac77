"""The benchmark's four workloads: inputs, operations and output checks.

Each builder takes the freshly imported library (a namespace of amegraph
modules), a seeded generator and the tiny flag, and returns a Workload:
the fixed list of operations one pass runs, and the warm-up calls that
fill the per-process caches (rank, permutation and digit tables) before
anything is timed. Inputs depend only on the seed. Every operation looks
its library function up at call time, so the tracer's wrappers are seen.
README.md says why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    # graphs or cuts the operation handled, for work_per_ref; None counts as 0
    work: Callable[[Any], int] | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmups: list[Callable[[], Any]]
    work_name: str  # what work_per_ref counts: graphs_per_s or cuts_per_s


# ---------------------------------------------------------------- scan

def scan(lib, rng, tiny: bool) -> Workload:
    """Witness-free searches: AME(n, 2) does not exist for n = 4 or n >= 7."""
    spec = lib.search.SearchSpec
    if tiny:
        exhaustive = [spec(n=4, p=2), spec(n=4, p=2, workers=2)]
        sampled = [(4, 5_000), (7, 20_000), (10, 2_000)]
    else:
        exhaustive = [spec(n=7, p=2), spec(n=7, p=2, workers=2)]
        sampled = [(7, 2_000_000), (8, 1_000_000), (10, 100_000)]
    specs = exhaustive + [
        spec(n=n, p=2, mode="random", samples=s, seed=int(rng.integers(2**31))) for n, s in sampled
    ]
    ops = []
    for s in specs:
        expected = s.base**s.edge_slots if s.mode == "exhaustive" else s.samples

        def check(res, expected=expected):
            return not res.witnesses and res.examined == expected and res.pruned == 0

        ops.append(Op(f"search n={s.n} {s.mode} w={s.workers}", _search_call(lib, s), check, _graphs))
    return Workload(ops, _search_warmups(lib, specs), "graphs_per_s")


# ---------------------------------------------------------------- canon

# name -> (spec fields, canonical classes, sha256 of the witness lines).
# Every search here takes well under a second, so a run makes many passes
# and each operation's fastest latency is well sampled. The n4p5 and 2x2p5
# pins agree with the library's scalar reference search (_reference_search).
CANON_PINS = {
    "n4p5": (dict(n=4, p=5), 309,
             "58b1168c45985872f4e5ff2266aee3ea18e60790a33d505ca442a90789055f03"),
    "2x2p5": (dict(n=4, p=5, group_size=2), 1675,
              "a99bf22c4cfec626aaeea3be960fec8a68751f168881dae1ad0efd5c0e664c45"),
    "n5p3-prune": (dict(n=5, p=3, prune_canonical=True), 219,
                   "42971bfc20d3d1071440d59641bbf1041daedf4d9c9b1ca5673132f0b0da4947"),
    "n6p2-prune": (dict(n=6, p=2, prune_canonical=True), 2,
                   "f8a6a2434d4067f605b6450017409dfaf24946c18638a8b5f830aaaed9cdf834"),
}
TINY_CANON_PINS = {
    "n4p3": (dict(n=4, p=3), 6,
             "1e6063edca39d4e5831941394a377ab0c2c39af2e4b376e6bb7349566a673f78"),
    "2x2p2": (dict(n=4, p=2, group_size=2), 6,
              "8d614e24b052d8d95c0b6e2da79dc336a8c3d3d5d7b7223abe924d3353404218"),
    "n4p3-prune": (dict(n=4, p=3, prune_canonical=True), 6,
                   "1e6063edca39d4e5831941394a377ab0c2c39af2e4b376e6bb7349566a673f78"),
    "n4p2-prune": (dict(n=4, p=2, prune_canonical=True), 0, hashlib.sha256(b"").hexdigest()),
}


def witness_digest(lib, graphs) -> str:
    text = "\n".join(lib.graph.format_graph_line(g) for g in graphs)
    return hashlib.sha256(text.encode()).hexdigest()


def canon(lib, rng, tiny: bool) -> Workload:
    """Witness-rich exhaustive searches; deterministic, so the seed is unused."""
    ops, specs = [], []
    for name, (fields, classes, digest) in (TINY_CANON_PINS if tiny else CANON_PINS).items():
        s = lib.search.SearchSpec(**fields)

        def check(res, classes=classes, digest=digest):
            return len(res.witnesses) == classes and witness_digest(lib, res.witnesses) == digest

        ops.append(Op(f"search {name}", _search_call(lib, s), check, _graphs))
        specs.append(s)
    return Workload(ops, _search_warmups(lib, specs), "graphs_per_s")


def _search_call(lib, spec):
    return lambda: lib.search.run(spec)


def _graphs(res) -> int:
    return res.examined + res.pruned


def _search_warmups(lib, specs):
    """A short random search per spec builds the same rank tables, prune
    layers and permutation tables as the measured call."""
    return [
        _search_call(lib, dataclasses.replace(s, mode="random", samples=4096, seed=0, workers=1))
        for s in specs
    ]


# ---------------------------------------------------------------- shared helpers

def random_graph(lib, rng, n: int, p: int, density: float = 1.0):
    """Uniform weights in [0, p) on each edge slot kept with probability `density`."""
    upper = np.triu(rng.integers(0, p, size=(n, n)) * (rng.random((n, n)) < density), 1)
    return lib.graph.Graph(p, upper + upper.T)


def scramble(lib, g, rng):
    """Rank-preserving disguise: one op_star at a random vertex, op_mult at
    every vertex, then a relabeling. A fixed number of op_star rewrites
    keeps the edge density, and with it the cost of certification, nearly
    independent of the seed.

    Returns the graph and the permutation (new vertex i is old perm[i])."""
    g = lib.graph.op_star(g, int(rng.integers(g.n)), int(rng.integers(1, g.p)))
    for v in range(g.n):
        g = lib.graph.op_mult(g, v, int(rng.integers(1, g.p)))
    perm = [int(v) for v in rng.permutation(g.n)]
    return lib.graph.permute(g, perm), perm


def rank_oracle(lib, g, cuts) -> dict:
    """Rank of every cut matrix by one batched elimination per cut size,
    independent of the scalar row_reduce path under test."""
    out = {}
    for size in sorted({len(c) for c in cuts}):
        group = [c for c in cuts if len(c) == size]
        mats = np.stack([
            g.adj[np.ix_(c, [u for u in range(g.n) if u not in c])] for c in group
        ])
        for c, r in zip(group, lib.gfp.rank_batch(mats, g.p)):
            out[c] = int(r)
    return out


def all_cuts(n: int, max_size: int):
    return [c for size in range(1, max_size + 1) for c in itertools.combinations(range(n), size)]


def bipartitions(n: int):
    """Cuts with 1 <= |cut| <= n/2, complements of half cuts skipped."""
    return [c for c in all_cuts(n, n // 2) if 2 * len(c) < n or 0 in c]


# ---------------------------------------------------------------- certify

GRS_CODES = ("grs:5,4,2", "grs:7,6,3", "grs:11,8,4", "grs:11,10,5", "grs:13,12,6")


def code_graph(lib, code):
    """Graph form of [[G^T, 0], [0, H]], built without the library's p^k
    codeword scan so that set-up stays cheap; the code_to_ame_graph
    operations are checked against it."""
    h = lib.codes.parity_check(code)
    x = np.vstack([code.gen.T, np.zeros((code.n - code.k, code.n), dtype=np.int64)])
    z = np.vstack([np.zeros((code.k, code.n), dtype=np.int64), h])
    return lib.stabilizer.to_graph(lib.stabilizer.GeneratorMatrix(code.p, x, z))[0]


def lc_scramble(lib, g, rng):
    """Generator matrix of g under a random row mix U and local Clifford Y."""
    p, n = g.p, g.n
    while True:
        u = rng.integers(0, p, size=(n, n))
        if lib.gfp.mat_rank(u, p) == n:
            break
    quads = []
    for _ in range(n):
        e, f = (int(v) for v in rng.integers(0, p, size=2))
        if e == f == 0:
            e = 1
        if e:
            ep = int(rng.integers(p))
            fp = (1 + f * ep) * pow(e, -1, p) % p
        else:
            fp = int(rng.integers(p))
            ep = -pow(f, -1, p) % p
        quads.append((e, f, ep, fp))
    y = lib.stabilizer.LocalCliffordY(p, *(np.array(col) for col in zip(*quads)))
    return lib.stabilizer.apply_local_clifford(lib.stabilizer.from_graph(g), u, y)


def _one_per_kind(ops, key=lambda op: op.kind):
    """Warm-ups: the first operation of each kind."""
    first = {}
    for op in ops:
        first.setdefault(key(op), op)
    return [op.run for op in first.values()]


def _report_check(oracle, cuts):
    """is_ame / is_ame_grouped report against the batched oracle: verdict,
    first failing cut in enumeration order, and every rank reported."""
    failing = [c for c in cuts if oracle[c] < len(c)]
    verdict, witness = not failing, (failing[0] if failing else None)

    def check(rep):
        return (rep.is_ame == verdict and rep.witness == witness
                and all(oracle.get(c) == r for c, r in rep.cut_ranks.items()))

    return check


def certify(lib, rng, tiny: bool) -> Workload:
    w = lib.witnesses
    codes = GRS_CODES[:2] if tiny else GRS_CODES
    code_graphs = {name: code_graph(lib, lib.codes.get_code(name)) for name in codes}
    primes = (3, 5) if tiny else (3, 5, 7, 11)
    ame = [w.quad_weighted(p) for p in primes] + [w.c5(p) for p in (2, 3, 5)] + [w.ame62()]
    ame += list(code_graphs.values())
    # sparse qubit graphs almost always fail their first cut, so the
    # early-exit operations form one cluster of latencies that holds the
    # median operation whatever the seed
    randoms = [random_graph(lib, rng, n, 2, density=0.25)
               for n in ((4, 5, 6) if tiny else (6, 7, 8, 9, 10)) for _ in range(5 if tiny else 20)]
    # certification cost depends on the scramble, so each witness comes in
    # several disguises and a pass averages over them
    scrambled = [scramble(lib, g, rng)[0] for g in ame for _ in range(1 if tiny else 3)]

    ops = []
    for g in scrambled + randoms:
        cuts = list(itertools.combinations(range(g.n), g.n // 2))
        ops.append(Op(f"is_ame n={g.n} p={g.p}", lambda g=g: lib.entanglement.is_ame(g),
                      _report_check(rank_oracle(lib, g, cuts), cuts), lambda rep: len(rep.cut_ranks)))

    grouped, size = w.ame44_grouped()
    for _ in range(2 if tiny else 4):
        g, perm = scramble(lib, grouped, rng)
        groups = [tuple(sorted(i for i in range(g.n) if perm[i] in range(t, t + size)))
                  for t in range(0, g.n, size)]
        cuts = [tuple(sorted(v for t in chosen for v in groups[t]))
                for chosen in itertools.combinations(range(len(groups)), len(groups) // 2)
                if len(groups) % 2 or 0 in chosen]
        run = lambda g=g, groups=groups: lib.entanglement.is_ame_grouped(g, groups)  # noqa: E731
        ops.append(Op("is_ame_grouped", run, _report_check(rank_oracle(lib, g, cuts), cuts),
                      lambda rep: len(rep.cut_ranks)))

    for g in ame:
        m = lc_scramble(lib, g, rng)
        cuts = all_cuts(g.n, g.n // 2)
        expected = rank_oracle(lib, g, cuts)

        def check(out, g=g, cuts=cuts, expected=expected):
            return out[0].n == g.n and rank_oracle(lib, out[0], cuts) == expected

        ops.append(Op(f"to_graph n={g.n} p={g.p}", lambda m=m: lib.stabilizer.to_graph(m), check))

    for name, expected in code_graphs.items():
        code = lib.codes.get_code(name)
        ops.append(Op(f"code_to_ame_graph {name}", lambda c=code: lib.codes.code_to_ame_graph(c),
                      lambda out, expected=expected: out == expected))

    return Workload(ops, _one_per_kind(ops, lambda op: op.kind.split()[0]), "cuts_per_s")


# ---------------------------------------------------------------- oracle

ENTROPY_TOL = 1e-6
UNIT_TOL = 1e-9


def _entropy_op(lib, g, cuts):
    def run():
        state = lib.simulator.build_graph_state(g)
        ent = [lib.simulator.cut_entropy_edits(state, c) for c in cuts]
        return ent, [lib.entanglement.cut_edits(g, c) for c in cuts]

    def check(out):
        return max(abs(e - r) for e, r in zip(*out)) <= ENTROPY_TOL

    return Op(f"entropy n={g.n} p={g.p}", run, check, lambda out: len(cuts))


def _stabilizer_op(lib, g):
    def run():
        m = lib.stabilizer.from_graph(g)
        dense = lib.simulator.stabilizer_state(g.p, m.x, m.z)
        return abs(lib.simulator.overlap(dense, lib.simulator.build_graph_state(g)))

    return Op(f"stabilizer_state n={g.n} p={g.p}", run, lambda ov: ov >= 1 - UNIT_TOL)


def _zmeasure_op(lib, g, cut, outcomes):
    def run():
        state = lib.simulator.build_graph_state(g)
        probs = []
        for pos, (q, a) in enumerate(zip(cut, outcomes)):
            shift = sum(1 for q2 in cut[:pos] if q2 < q)
            prob, state = lib.simulator.z_measure_dense(state, q - shift, a)
            probs.append(prob)
        start = lib.graph.LabeledGraph(g, np.zeros(g.n, dtype=np.int64))
        ref = lib.simulator.build_labeled(lib.graph.z_measure_symbolic(start, cut, outcomes))
        return probs, abs(lib.simulator.overlap(state, ref))

    def check(out):
        probs, ov = out
        return all(abs(pr - 1.0 / g.p) <= UNIT_TOL for pr in probs) and ov >= 1 - UNIT_TOL

    return Op(f"z_measure n={g.n} p={g.p}", run, check)


def oracle(lib, rng, tiny: bool) -> Workload:
    if tiny:
        entropy, stab, zmeas = [(4, 3), (5, 2)], [(4, 2), (3, 3)], [(4, 2), (3, 3)]
        thresholds = [lib.witnesses.quad_weighted(3)]
    else:
        entropy = [(6, 5), (6, 5), (8, 3), (8, 3), (12, 2)]
        stab = [(8, 2), (9, 2), (10, 2), (6, 3)]
        zmeas = [(5, 2), (6, 3), (6, 2), (7, 2)] * 2
        thresholds = [lib.witnesses.quad_weighted(3), lib.witnesses.quad_weighted(7),
                      lib.witnesses.ame62()]
    trials = 2 if tiny else 4

    ops = [_entropy_op(lib, random_graph(lib, rng, n, p), bipartitions(n)) for n, p in entropy]
    ops += [_stabilizer_op(lib, random_graph(lib, rng, n, p)) for n, p in stab]
    for n, p in zmeas:
        cut = [int(v) for v in rng.choice(n, size=int(rng.integers(1, 3)), replace=False)]
        outcomes = [int(v) for v in rng.integers(0, p, size=len(cut))]
        ops.append(_zmeasure_op(lib, random_graph(lib, rng, n, p), cut, outcomes))

    qss = lib.qss
    schemes = [qss.ThresholdScheme(g, dealer=0) for g in thresholds]
    schemes.append(qss.RampScheme(lib.witnesses.ame62(), (0, 1)))
    for sc in schemes:
        p, ramp = sc.graph.p, isinstance(sc, qss.RampScheme)
        tag = f"n={sc.graph.n} p={p}"
        outcomes = [(0, 0)] if ramp else list(itertools.product(range(p), repeat=2))
        for b in itertools.combinations(sc.players, sc.m):
            for o in outcomes:
                s = qss.random_secret(p, len(sc.dealers), rng)
                if ramp:
                    run = lambda sc=sc, s=s, b=b: qss.run_ramp(sc, s, b)  # noqa: E731
                else:
                    run = lambda sc=sc, s=s, b=b, o=o: qss.run_threshold(sc, s, b, o)  # noqa: E731
                ops.append(Op(f"{'ramp' if ramp else 'threshold'} {tag}", run,
                              lambda fid: fid >= 1 - UNIT_TOL))
        sizes = [1] if ramp else range(1, sc.m)
        for f in (f for size in sizes for f in itertools.combinations(sc.players, size)):
            seed = int(rng.integers(2**31))
            run = lambda sc=sc, f=f, seed=seed: qss.audit_forbidden(  # noqa: E731
                sc, f, trials, np.random.default_rng(seed))
            ops.append(Op(f"audit {tag}", run, lambda dist: dist <= UNIT_TOL))

    # one state and one entropy per graph size stands in for the long
    # entropy sweeps; every other kind of operation runs once
    warm = _one_per_kind([op for op in ops if not op.kind.startswith("entropy")])
    for n, p in dict.fromkeys(entropy + stab + zmeas):
        g = random_graph(lib, rng, n, p)
        warm.append(lambda g=g: lib.simulator.cut_entropy_edits(lib.simulator.build_graph_state(g), (0,)))
    return Workload(ops, warm, "cuts_per_s")


WORKLOADS = {"scan": scan, "canon": canon, "certify": certify, "oracle": oracle}
