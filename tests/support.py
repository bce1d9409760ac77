"""Helpers only the tests read: gate-level state builders, the symbolic
QSS encoding and the greedy basis completion, which serve as oracles for
the library's stacked paths, and text writers and readers for fixtures."""

from pathlib import Path

import numpy as np

from amegraph import gfp, qss
from amegraph import simulator as sim
from amegraph.codes import LinearCode
from amegraph.graph import Graph, GraphFormatError, LabeledGraph, format_graph, graph_from_edges, z_measure_symbolic
from amegraph.stabilizer import GeneratorMatrix, InvalidGeneratorError


def basis_state(p: int, n: int, digits) -> sim.StateVector:
    digits = list(digits)
    if len(digits) != n:
        raise ValueError(f"expected {n} digits, got {len(digits)}")
    sim.check_cap(p, n)
    idx = sum(int(d) % p * p**i for i, d in enumerate(digits))
    amps = np.zeros(p**n, dtype=np.complex128)
    amps[idx] = 1.0
    return sim.StateVector(p, n, amps)


def apply_cz(s: sim.StateVector, i: int, j: int, power: int = 1) -> sim.StateVector:
    """CZ^power on qudits i and j: omega^(power k_i k_j) on each basis state,
    from its explicit base-p digits rather than the library's phase kernel."""
    if sim._axis(s.n, i) == sim._axis(s.n, j):
        raise ValueError("CZ needs two distinct qudits")
    index = np.arange(s.p**s.n)
    ki, kj = index // s.p**i % s.p, index // s.p**j % s.p
    return sim.StateVector(s.p, s.n, s.amps * sim.omega_powers(s.p)[power * ki * kj % s.p])


def bell_state(p: int, g: int, h: int) -> sim.StateVector:
    # amplitude omega^(jg) at |j>|j+h>, first qudit least significant
    return sim.StateVector(p, 2, sim.ugh_matrix(p, g, h).T.reshape(-1) / np.sqrt(p))


def encode_symbolic(scheme, secret, outcomes):
    """Labeled-graph superposition equal (up to global phase) to qss.encode().

    Returns [(coefficient, LabeledGraph), ...] over the dealer coordinate
    tuples; coefficients fold in the Bell-outcome corrections. This is the
    paper's encoding in graph-state form, held against the dense encode(),
    which the audits run on.
    """
    g = scheme.graph
    p = g.p
    dealers = list(scheme.dealers)
    L = len(dealers)
    outcomes = [tuple(o) for o in outcomes]
    s = qss._secret_array(scheme, secret)
    w = sim.omega_powers(p)
    start = LabeledGraph(g, np.zeros(g.n, dtype=np.int64))
    terms = []
    for flat, digits in enumerate(gfp.digits(np.arange(p**L), p, L).tolist()):
        coeff = s[flat]
        shifted = [(d + bh) % p for d, (_, bh) in zip(digits, outcomes)]  # U_gh^dagger per dealer
        for d, (bg, _) in zip(digits, outcomes):
            coeff = coeff * w[(-d * bg) % p]
        # edges between dealers phase the branch by omega^(A_dd' i i')
        for a in range(L):
            for b in range(a + 1, L):
                coeff = coeff * w[(g.adj[dealers[a], dealers[b]] * shifted[a] * shifted[b]) % p]
        # the branch is the graph state after Z-measuring the dealers with outcomes `shifted`
        terms.append((coeff, z_measure_symbolic(start, dealers, shifted)))
    # the dealer rows are independent (AME), so all p^L labels are distinct
    # and the coefficients carry unit total weight
    return terms


def greedy_basis(R: np.ndarray, p: int) -> np.ndarray:
    """R's rows completed to a basis by adding e_0, e_1, ... while each
    keeps the rows independent, one scalar rank per candidate: the oracle
    for qss._complete_basis, which decides it in one reduction."""
    if gfp.mat_rank(R, p) != R.shape[0]:
        raise qss.NotAuthorizedError("restricted rows are dependent")
    full = R
    for t in range(R.shape[1]):
        if full.shape[0] == R.shape[1]:
            break
        e = np.zeros((1, R.shape[1]), dtype=np.int64)
        e[0, t] = 1
        cand = np.vstack([full, e])
        if gfp.mat_rank(cand, p) == cand.shape[0]:
            full = cand
    return full


def save_graph(g: Graph, path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")


def parse_graph_line(line: str) -> Graph:
    """Inverse of graph.format_graph_line."""
    toks = line.split()
    if len(toks) < 2 or (len(toks) - 2) % 3:
        raise GraphFormatError("expected `p n` plus (i, j, w) triples")
    p, n = int(toks[0]), int(toks[1])
    trip = [int(t) for t in toks[2:]]
    edges = [(trip[t] - 1, trip[t + 1] - 1, trip[t + 2]) for t in range(0, len(trip), 3)]
    return graph_from_edges(p, n, edges)


def format_code(c: LinearCode) -> str:
    """Inverse of codes.parse_code: `p n k` header, then the k generator columns as rows."""
    lines = [f"{c.p} {c.n} {c.k}"]
    for col in range(c.k):
        lines.append(" ".join(str(int(v)) for v in c.gen[:, col]))
    return "\n".join(lines) + "\n"


def parse_generator_matrix(text: str) -> GeneratorMatrix:
    """Inverse of stabilizer.format_generator_matrix."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or len(rows[0]) != 3:
        raise InvalidGeneratorError("header must be `p k n`")
    p, k, n = (int(v) for v in rows[0])
    gfp.ensure_prime(p)  # first, so that every entry reduced mod p fits int64
    if len(rows) != k + 1:
        raise InvalidGeneratorError(f"expected {k} generator rows")
    mat = []
    for parts in rows[1:]:
        if len(parts) != 2 * n:
            raise InvalidGeneratorError("each row needs 2n residues")
        mat.append([int(v) % p for v in parts])
    arr = np.array(mat, dtype=np.int64).reshape(k, 2 * n)
    return GeneratorMatrix(p, arr[:, :n], arr[:, n:])
