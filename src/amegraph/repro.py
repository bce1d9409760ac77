"""Reproduction checklist: the package's end-to-end verification gates.

Each check pins a concrete, independently computable fact (exhaustive
counts, exact matrices, dense-oracle agreement, protocol fidelities)
with fixed tolerances and fixed seeds. `run_all` drives them for the
CLI `repro` subcommand; the test suite asserts every check passes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import codes, composite, entanglement, gfp, qss, search, simulator, witnesses
from .graph import Graph, graph_from_edges, op_mult, op_star, z_measure_words


@dataclass
class CheckResult:
    ident: int
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str
    warnings: list[str] = field(default_factory=list)
    elapsed: float = 0.0  # seconds, set by run_all; not part of line()

    def line(self) -> str:
        return f"{self.status} {self.ident} {self.name}: {self.detail}"


def _c4() -> Graph:
    return graph_from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])


def _entropy_rank_delta(p: int, n: int, weights: np.ndarray) -> float:
    """Max |dense cut entropy - cut rank| over all graphs and bipartitions.

    `weights` holds one base-p weight word per graph over the lexicographic
    edge slots. Vectorized: graph_amplitudes stacks as many states as its
    default cap holds, in their field (real_if_close, once per stack), and
    each bipartition is handled with one stacked entropy and one batched
    rank computation.
    """
    singles = tuple((v,) for v in range(n))
    plans = [entanglement.cut_plan(n, singles, m) for m in range(1, n // 2 + 1)]
    worst = 0.0
    chunk = simulator.DEFAULT_CAP // p**n
    for lo in range(0, weights.shape[0], chunk):
        batch = weights[lo : lo + chunk].astype(np.int64)
        amps = simulator.real_if_close(simulator.graph_amplitudes(p, n, batch))
        for plan in plans:  # every cut of the plan at once: ranks[b, c] is graph b's at cut c
            blocks = batch[:, plan.cols].reshape(-1, plan.rows, plan.width)
            ranks = gfp.rank_stack(blocks, p).reshape(len(batch), len(plan.cuts))
            for cut, cut_ranks in zip(plan.cuts, ranks.T):
                ent = simulator.field_entropies(amps, p, n, cut)
                worst = max(worst, float(np.abs(ent - cut_ranks).max()))
    return worst


def check_oracle_equivalence(quick: bool = False) -> CheckResult:
    """Cut ranks equal dense entanglement entropies, exhaustively for
    n <= 5 at p in {2, 3} plus 500 random graphs at n = 6, p in {2, 3, 5}."""
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for p in (2, 3):
        for n in range(2, 6):
            e = n * (n - 1) // 2
            words = gfp.digits(np.arange(p**e), p, e)
            worst = max(worst, _entropy_rank_delta(p, n, words))
            checked += words.shape[0]
    rng = np.random.default_rng(20240601)
    for p in (2, 3, 5):
        words = rng.integers(0, p, size=(500, 15), dtype=np.int64)
        worst = max(worst, _entropy_rank_delta(p, 6, words))
        checked += 500
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 300
    return CheckResult(
        1, "rank-entropy-oracle", "PASS" if ok else "FAIL",
        f"graphs={checked} max|delta|={worst:.2e} elapsed={elapsed:.1f}s",
    )


def check_no_ame_4_qubits(quick: bool = False) -> CheckResult:
    t0 = time.perf_counter()
    res = search.enumerate_graphs(search.SearchSpec(n=4, p=2))
    elapsed = time.perf_counter() - t0
    ok = res.examined == 64 and not res.witnesses and elapsed < 1.0
    return CheckResult(
        2, "no-ame-4-qubits", "PASS" if ok else "FAIL",
        f"examined={res.examined} witnesses={len(res.witnesses)} elapsed={elapsed:.2f}s",
    )


def check_no_ame_7_qubits(quick: bool = False) -> CheckResult:
    if quick:
        return CheckResult(3, "no-ame-7-qubits", "SKIP", "skipped in quick mode")
    res = search.enumerate_graphs(search.SearchSpec(n=7, p=2))
    ok = res.examined == 2_097_152 and not res.witnesses and res.elapsed <= 120
    warnings = []
    if res.rate * 60 < 1e6:
        warnings.append(f"throughput {res.rate * 60:.0f}/min below the 1e6/min soft gate")
    return CheckResult(
        3, "no-ame-7-qubits", "PASS" if ok else "FAIL",
        f"examined={res.examined} witnesses={len(res.witnesses)} elapsed={res.elapsed:.1f}s",
        warnings,
    )


def check_weighted_square_family(quick: bool = False) -> CheckResult:
    ok = True
    for p in (3, 5, 7, 11):
        ok = ok and entanglement.is_ame(witnesses.quad_weighted(p)).is_ame
    rep = entanglement.is_ame(_c4())
    ok = ok and not rep.is_ame and rep.witness == (0, 3)
    ok = ok and rep.cut_ranks[(0, 3)] == 1
    return CheckResult(
        4, "weighted-square-family", "PASS" if ok else "FAIL",
        "AME at p=3,5,7,11; plain square fails at {1,4} with rank 1" if ok else "mismatch",
    )


def check_dimension_discriminator(quick: bool = False) -> CheckResult:
    rows = [[2, 3], [3, 1]]
    r5 = gfp.mat_rank(rows, 5)
    r7 = gfp.mat_rank(rows, 7)
    ok = r5 == 2 and r7 == 1
    return CheckResult(
        5, "dimension-discriminator", "PASS" if ok else "FAIL",
        f"rank mod 5 = {r5}, rank mod 7 = {r7}",
    )


def _codeword_state(c: codes.LinearCode) -> simulator.StateVector:
    """Uniform superposition over the codewords of c."""
    amps = np.zeros([c.p] * c.n, dtype=np.complex128)
    words = (codes.message_words(c.p, c.k) @ c.gen.T) % c.p
    amps[tuple(words.T[::-1])] = 1.0  # axis n-1-i holds qudit i
    return simulator.StateVector(c.p, c.n, amps.reshape(-1) / np.sqrt(c.p**c.k))


def _stabilized_by_displacements(c: codes.LinearCode) -> bool:
    """X^(codeword) and Z^(dual codeword) each leave the codeword state as it is."""
    state = _codeword_state(c)
    shifts = (codes.message_words(c.p, c.k) @ c.gen.T) % c.p
    phases = (codes.message_words(c.p, c.n - c.k) @ codes.parity_check(c)) % c.p
    for apply, rows in ((simulator.apply_x, shifts), (simulator.apply_z, phases)):
        for powers in rows.tolist():
            moved = state
            for q, power in enumerate(powers):
                if power:
                    moved = apply(moved, q, power)
            if abs(simulator.overlap(moved, state) - 1) > 1e-9:
                return False
    return True


def check_mds_pipeline(quick: bool = False) -> CheckResult:
    t0 = time.perf_counter()
    ham = codes.hamming433()
    m, g = codes.certified(ham)
    expected_x = np.array([[1, 0, 1, 2], [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    expected_z = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 2], [0, 1, 1, 1]])
    exact = bool((m.x == expected_x).all() and (m.z == expected_z).all())
    graph_ok = entanglement.is_ame(g).is_ame
    dense_ok = _stabilized_by_displacements(ham) and _stabilized_by_displacements(
        codes.grs_code(5, 4, 2)
    )
    elapsed = time.perf_counter() - t0
    ok = exact and graph_ok and dense_ok and elapsed < 10
    return CheckResult(
        6, "mds-pipeline", "PASS" if ok else "FAIL",
        f"matrix_exact={exact} graph_ame={graph_ok} dense_stabilized={dense_ok} "
        f"elapsed={elapsed:.1f}s",
    )


def check_rewrite_invariance(quick: bool = False) -> CheckResult:
    rng = np.random.default_rng(7777)
    bad = 0
    for _ in range(1000):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(3, 8))
        adj = rng.integers(0, p, size=(n, n))
        adj = (adj + adj.T) % p
        np.fill_diagonal(adj, 0)
        g = Graph(p, adj)
        v = int(rng.integers(n))
        if rng.random() < 0.5 and p > 2:
            g2 = op_mult(g, v, int(rng.integers(1, p)))
        else:
            g2 = op_star(g, v, int(rng.integers(1, p)))
        size = int(rng.integers(1, n // 2 + 1))
        cut = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        if entanglement.cut_edits(g, cut) != entanglement.cut_edits(g2, cut):
            bad += 1
    return CheckResult(
        7, "rewrite-invariance", "PASS" if bad == 0 else "FAIL",
        f"1000 random (graph, rewrite, cut) triples, {bad} rank changes",
    )


def check_measurement_consistency(quick: bool = False) -> CheckResult:
    """One pass per (p, n, cut, outcomes) over the stack of all p^C(n, 2)
    edge words: Z-measure the dense stack and the symbolic one, compare."""
    worst_prob, worst_overlap = 0.0, 1.0
    for p in (2, 3):
        for n in (2, 3, 4):
            e = n * (n - 1) // 2
            words = gfp.digits(np.arange(p**e), p, e)
            labels = np.zeros((len(words), n), dtype=np.int64)
            dense = simulator.graph_amplitudes(p, n, words)
            for size in range(1, min(n, 3)):  # one or two measured qudits, one survivor at least
                outcomes = itertools.product(range(p), repeat=size)
                for cut, outs in itertools.product(itertools.combinations(range(n), size), outcomes):
                    state = dense
                    for pos, (q, a) in enumerate(zip(cut, outs)):
                        # the cut ascends, so the pos qudits measured before q sat below it
                        probs, state = simulator.z_measure_stack(state, p, n - pos, q - pos, a)
                        worst_prob = max(worst_prob, float(np.abs(probs - 1.0 / p).max()))
                    measured = z_measure_words(p, n, words, labels, cut, outs)
                    sym = simulator.graph_amplitudes(p, n - size, *measured)
                    overlaps = np.abs(np.einsum("...k,...k->...", state.conj(), sym))
                    worst_overlap = min(worst_overlap, float(overlaps.min()))
    ok = worst_prob <= 1e-9 and worst_overlap >= 1 - 1e-9
    return CheckResult(
        8, "measurement-consistency", "PASS" if ok else "FAIL",
        f"max|prob-1/p|={worst_prob:.2e} min overlap={worst_overlap:.12f}",
    )


def _audit_check(ident: int, name: str, seed: int, schemes, limit: float) -> CheckResult:
    """qss.audit of each scheme with 20 secrets: every authorized set must
    recover the secret and no forbidden set learn anything, within `limit` s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_fid, worst_dist = 1.0, 0.0
    for scheme in schemes:
        for kind, _, value in qss.audit(scheme, 20, rng):
            if kind == "AUTH":
                worst_fid = min(worst_fid, value)
            else:
                worst_dist = max(worst_dist, value)
    elapsed = time.perf_counter() - t0
    ok = worst_fid >= 1 - 1e-9 and worst_dist <= 1e-9 and elapsed <= limit
    # round-off at or below 1e-12 prints as that bound: its digits depend on the BLAS build
    dist = "<=1e-12" if worst_dist <= 1e-12 else f"={worst_dist:.2e}"
    return CheckResult(
        ident, name, "PASS" if ok else "FAIL",
        f"min fidelity={worst_fid:.12f} max forbidden distance{dist} elapsed={elapsed:.1f}s",
    )


def check_threshold_qss(quick: bool = False) -> CheckResult:
    schemes = [qss.ThresholdScheme(g, dealer=0) for g in (witnesses.quad_weighted(3), witnesses.ame62())]
    return _audit_check(9, "threshold-qss", 424242, schemes, 180)


def check_ramp_qss(quick: bool = False) -> CheckResult:
    return _audit_check(10, "ramp-qss", 99, [qss.RampScheme(witnesses.ame62(), (0, 1))], 120)


def check_composite_4_4(quick: bool = False) -> CheckResult:
    comp = composite.build_composite(4, 4)
    report = composite.verify_composite(comp)
    fr = report.factors[0]
    party_ok = report.is_ame and len(fr.party_report.cut_ranks) == 3
    party_ok = party_ok and all(r == 4 for r in fr.party_report.cut_ranks.values())
    ungrouped = fr.ungrouped_report
    split_fails = ungrouped is not None and not ungrouped.is_ame and ungrouped.witness is not None
    ok = party_ok and split_fails
    return CheckResult(
        11, "composite-4-4", "PASS" if ok else "FAIL",
        f"party cuts at rank 4: {party_ok}; ungrouped 8-qubit split fails: {split_fails}",
    )


def _oracle_verifies(g: Graph) -> bool:
    state = simulator.build_graph_state(g)
    return all(
        abs(simulator.cut_entropy_edits(state, cut) - entanglement.cut_edits(g, cut)) <= 1e-6
        for size in range(1, g.n // 2 + 1)
        for cut in entanglement.party_cuts([(v,) for v in range(g.n)], size)
    )


def check_witness_discovery(quick: bool = False) -> CheckResult:
    finds = []
    for n, p, seed, budget in ((5, 2, 101, 10**6), (6, 2, 102, 10**6), (7, 3, 103, 10**8)):
        spec = search.SearchSpec(n=n, p=p, mode="random", seed=seed, samples=budget)
        res = search.random_search(spec)
        found = bool(res.witnesses)
        verified = found and entanglement.is_ame(res.witnesses[0]).is_ame
        verified = verified and _oracle_verifies(res.witnesses[0])
        finds.append((n, p, res.examined, found and verified))
    ok = all(f[3] for f in finds)
    detail = " ".join(f"AME({n},{p})@{ex}" for n, p, ex, good in finds if good)
    return CheckResult(
        12, "witness-discovery", "PASS" if ok else "FAIL",
        detail if ok else f"failures: {[f for f in finds if not f[3]]}",
    )


CHECKS = [
    check_oracle_equivalence,
    check_no_ame_4_qubits,
    check_no_ame_7_qubits,
    check_weighted_square_family,
    check_dimension_discriminator,
    check_mds_pipeline,
    check_rewrite_invariance,
    check_measurement_consistency,
    check_threshold_qss,
    check_ramp_qss,
    check_composite_4_4,
    check_witness_discovery,
]


def run_all(quick: bool = False, only=None) -> list[CheckResult]:
    results = []
    for ident, fn in enumerate(CHECKS, start=1):
        if only is not None and ident not in only:
            continue
        t0 = time.perf_counter()
        res = fn(quick=quick)
        res.elapsed = time.perf_counter() - t0
        results.append(res)
    return results
