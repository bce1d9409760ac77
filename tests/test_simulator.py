import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amegraph import qss
from amegraph import simulator as sim
from amegraph.entanglement import cut_edits
from amegraph.graph import Graph, LabeledGraph, edge_word, graph_from_edges, graph_from_word, z_measure_symbolic
from amegraph.stabilizer import apply_local_clifford, from_graph
from amegraph.witnesses import quad_weighted
from support import apply_cz, basis_state, bell_state
from test_stabilizer import random_invertible, random_y


def single_edge(p=2):
    return graph_from_edges(p, 2, [(0, 1, 1)])


def random_state(p, n, rng) -> sim.StateVector:
    v = rng.standard_normal(p**n) + 1j * rng.standard_normal(p**n)
    return sim.StateVector(p, n, v / np.linalg.norm(v))


def test_apply_z_on_basis():
    s = basis_state(3, 1, [1])
    out = sim.apply_z(s, 0)
    assert np.isclose(out.amps[1], np.exp(2j * np.pi / 3))


def test_apply_x_wraps():
    s = basis_state(3, 1, [2])
    out = sim.apply_x(s, 0)
    assert np.isclose(out.amps[0], 1.0)


def test_zx_commutation():
    rng = np.random.default_rng(1)
    for p in (2, 3, 5):
        s = random_state(p, 2, rng)
        zx = sim.apply_z(sim.apply_x(s, 0), 0)
        xz = sim.apply_x(sim.apply_z(s, 0), 0)
        assert np.allclose(zx.amps, np.exp(2j * np.pi / p) * xz.amps)


def test_cz_examples():
    s = basis_state(2, 2, [1, 1])
    assert np.isclose(apply_cz(s, 0, 1).amps[3], -1.0)
    t = basis_state(3, 2, [1, 2])
    out = apply_cz(t, 0, 1, power=2)
    # exponent 2*1*2 = 4 = 1 mod 3
    assert np.isclose(out.amps[m_idx(3, [1, 2])], np.exp(2j * np.pi / 3))
    rng = np.random.default_rng(2)
    s = random_state(3, 2, rng)
    assert np.allclose(apply_cz(s, 0, 1).amps, apply_cz(s, 1, 0).amps)


def m_idx(p, digits):
    return sum(d * p**i for i, d in enumerate(digits))


def test_gate_orders():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        s = random_state(p, 2, rng)
        z = x = cz = s
        for _ in range(p):
            z = sim.apply_z(z, 0)
            x = sim.apply_x(x, 0)
            cz = apply_cz(cz, 0, 1)
        assert np.allclose(z.amps, s.amps)
        assert np.allclose(x.amps, s.amps)
        assert np.allclose(cz.amps, s.amps)


def test_single_edge_state():
    s = sim.build_graph_state(single_edge())
    want = np.array([1, 1, 1, -1], dtype=complex) / 2
    assert np.allclose(s.amps, want)


def test_labeled_states_orthogonal():
    g = graph_from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    states = {}
    for label in itertools.product(range(2), repeat=4):
        states[label] = sim.build_labeled(LabeledGraph(g, np.array(label)))
    labels = list(states)
    for a in labels:
        for b in labels:
            ov = abs(sim.overlap(states[a], states[b]))
            assert np.isclose(ov, 1.0 if a == b else 0.0, atol=1e-9)


def test_graph_state_stabilized_by_generators():
    rng = np.random.default_rng(4)
    for p in (2, 3):
        for n in (2, 3, 4):
            adj = rng.integers(0, p, size=(n, n))
            adj = (adj + adj.T) % p
            np.fill_diagonal(adj, 0)
            g = Graph(p, adj)
            s = sim.build_graph_state(g)
            for i in range(n):
                t = sim.apply_x(s, i)
                for j in range(n):
                    if adj[i, j]:
                        t = sim.apply_z(t, j, int(adj[i, j]))
                assert np.allclose(t.amps, s.amps)


def test_cz_order_invariance():
    g = graph_from_edges(3, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 1)])
    ref = sim.build_graph_state(g)
    rng = np.random.default_rng(5)
    s = sim.build_graph_state(Graph(3, np.zeros((4, 4), dtype=np.int64)))
    edges = g.edges()
    for _ in range(5):
        order = rng.permutation(len(edges))
        t = s
        for k in order:
            i, j, w = edges[k]
            t = apply_cz(t, i, j, w)
        assert np.allclose(t.amps, ref.amps)


def test_reduced_density_single_edge():
    s = sim.build_graph_state(single_edge(3))
    rho = sim.reduced_density(s, [0])
    assert np.allclose(rho, np.eye(3) / 3)
    assert np.isclose(sim.cut_entropy_edits(s, [0]), 1.0)



def test_reduced_density_bounds_its_square_by_the_cap():
    # keeping 15 of 16 qubits asks for 2^15 x 2^15 entries (16 GiB): refused
    # before any is allocated; 10 of them, 2^20 entries, are the cap's edge
    s = sim.build_graph_state(Graph(2, np.zeros((16, 16), dtype=np.int64)))
    tracemalloc.start()
    try:
        with pytest.raises(sim.TooLargeError, match="2\\^30 amplitudes exceed the cap"):
            sim.reduced_density(s, range(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.allclose(sim.reduced_density(s, range(10)), np.full((1024, 1024), 1 / 1024))

def test_c5_ame_entropies():
    g = graph_from_edges(
        2, 5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1)]
    )
    s = sim.build_graph_state(g)
    for cut in itertools.combinations(range(5), 2):
        rho = sim.reduced_density(s, list(cut))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-9)
        assert abs(sim.cut_entropy_edits(s, cut) - 2.0) < 1e-9


def test_c4_failing_cut_entropy():
    g = graph_from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    s = sim.build_graph_state(g)
    assert abs(sim.cut_entropy_edits(s, (0, 3)) - 1.0) < 1e-9


def test_entropy_symmetry():
    rng = np.random.default_rng(6)
    s = random_state(3, 4, rng)
    for cut in itertools.combinations(range(4), 2):
        comp = tuple(v for v in range(4) if v not in cut)
        assert abs(sim.cut_entropy_edits(s, cut) - sim.cut_entropy_edits(s, comp)) < 1e-9


def test_z_measure_dense_uniform_and_crosscheck():
    g = graph_from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    s = sim.build_graph_state(g)
    for q in range(4):
        for outcome in range(2):
            prob, post = sim.z_measure_dense(s, q, outcome)
            assert abs(prob - 0.5) < 1e-9
            sym = z_measure_symbolic(LabeledGraph(g, np.zeros(4, dtype=int)), (q,), (outcome,))
            assert abs(abs(sim.overlap(post, sim.build_labeled(sym))) - 1) < 1e-9


def test_z_measure_stack_refuses_before_dividing():
    # one row of the stack annihilated by the projection: no nan row comes back
    stack = np.stack([basis_state(2, 1, [1]).amps, basis_state(2, 1, [0]).amps])
    with pytest.raises(sim.ZeroProbabilityError):
        sim.z_measure_stack(stack, 2, 1, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.sampled_from([(1,), (3,), (2, 2)]), st.data())
def test_stacked_dense_path_matches_one_row_cases(p, n, stack, data):
    # row by row: the stack's amplitudes, cut entropies and Z-measurement are
    # build_labeled's, cut_entropy_edits' and z_measure_dense's
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(0, p, stack + (n * (n - 1) // 2,))
    labels = rng.integers(0, p, stack + (n,))
    cut = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=max(n - 1, 1))))
    i, outcome = data.draw(st.integers(0, n - 1)), data.draw(st.integers(-p, 2 * p))
    amps = sim.graph_amplitudes(p, n, words, labels)
    assert amps.shape == stack + (p**n,)
    ents = sim.cut_entropies(amps, p, n, cut)
    probs, posts = sim.z_measure_stack(amps, p, n, i, outcome)
    assert ents.shape == probs.shape == stack and posts.shape == stack + (p ** (n - 1),)
    for pos in np.ndindex(*stack):
        s = sim.build_labeled(LabeledGraph(graph_from_word(p, n, words[pos]), labels[pos]))
        assert np.array_equal(amps[pos], s.amps)
        assert abs(ents[pos] - sim.cut_entropy_edits(s, cut)) <= 1e-12
        prob, post = sim.z_measure_dense(s, i, outcome)
        assert abs(probs[pos] - prob) <= 1e-15
        assert np.allclose(posts[pos], post.amps, rtol=0, atol=1e-15)


def test_graph_amplitudes_at_the_cap_edge():
    # exactly DEFAULT_CAP amplitudes build within 2x their bytes (int64 phase
    # exponents, then the complex amplitudes); one graph more is refused
    # before anything of the stack's size is allocated
    n = 10
    rows = sim.DEFAULT_CAP // 2**n
    words = np.random.default_rng(13).integers(0, 2, (rows + 1, n * (n - 1) // 2))
    tracemalloc.start()
    try:
        amps = sim.graph_amplitudes(2, n, words[:rows])
        peak = tracemalloc.get_traced_memory()[1]
        del amps
        tracemalloc.reset_peak()
        with pytest.raises(sim.TooLargeError, match=f"^{rows + 1} x 2\\^10 amplitudes exceed the cap of {sim.DEFAULT_CAP}$"):
            sim.graph_amplitudes(2, n, words)
        refused = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * sim.DEFAULT_CAP
    assert refused <= 64 << 10


def test_z_measure_zero_probability():
    s = basis_state(2, 1, [0])
    with pytest.raises(sim.ZeroProbabilityError):
        sim.z_measure_dense(s, 0, 1)


def test_bell_measure_standard_pair():
    # (|00> + |11>)/sqrt(2) projected on Psi_00 leaves certainty
    s = bell_state(2, 0, 0)
    assert np.allclose(s.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))
    two = sim.StateVector(2, 2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    prob, _post = sim.bell_measure(two, (0, 1), 0, 0)
    assert abs(prob - 1.0) < 1e-9


def test_bell_basis_complete():
    for p in (2, 3, 5):
        acc = np.zeros((p * p, p * p), dtype=complex)
        for g in range(p):
            for h in range(p):
                v = bell_state(p, g, h).amps
                acc += np.outer(v, v.conj())
        assert np.allclose(acc, np.eye(p * p), atol=1e-9)


def test_ugh_identity_and_unitarity():
    assert np.allclose(sim.ugh_matrix(2, 0, 0), np.eye(2))
    for p in (2, 3, 5):
        for g in range(p):
            for h in range(p):
                u = sim.ugh_matrix(p, g, h)
                assert np.allclose(u @ u.conj().T, np.eye(p))


def test_norm_preserved_by_unitaries():
    rng = np.random.default_rng(7)
    s = random_state(3, 3, rng)
    for out in (
        sim.apply_z(s, 1),
        sim.apply_x(s, 2, 2),
        apply_cz(s, 0, 2),
    ):
        assert abs(np.vdot(out.amps, out.amps).real - 1) < 1e-9


def test_too_large_cap(monkeypatch):
    # every dense entry point reads DEFAULT_CAP when called: lowered to 2^10,
    # it refuses states of 2^14 amplitudes and more before allocating them
    path = graph_from_edges(2, 14, [(i, i + 1, 1) for i in range(13)])
    m = from_graph(path)
    state = sim.build_graph_state(path)
    scheme = qss.ThresholdScheme(quad_weighted(13))  # 13^5 amplitudes with the ancilla
    secret = np.eye(13)[0]
    calls = {
        "graph_amplitudes": lambda: sim.graph_amplitudes(2, 14, edge_word(path)),
        "build_graph_state": lambda: sim.build_graph_state(path),
        "build_labeled": lambda: sim.build_labeled(LabeledGraph(path, np.zeros(14, dtype=np.int64))),
        "stabilizer_state": lambda: sim.stabilizer_state(2, m.x, m.z),
        "reduced_density": lambda: sim.reduced_density(state, range(6)),  # 2^12 entries
        "qss.encode": lambda: qss.encode(scheme, secret, [(0, 0)]),
    }
    monkeypatch.setattr(sim, "DEFAULT_CAP", 1 << 10)
    for name, call in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(sim.TooLargeError, match=f"amplitudes exceed the cap of {1 << 10}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, name


def test_stabilizer_state_matches_graph_state():
    rng = np.random.default_rng(8)
    for p in (2, 3):
        for n in (2, 3):
            adj = rng.integers(0, p, size=(n, n))
            adj = (adj + adj.T) % p
            np.fill_diagonal(adj, 0)
            g = Graph(p, adj)
            m = from_graph(g)
            psi = sim.stabilizer_state(m.p, m.x, m.z)
            ref = sim.build_graph_state(g)
            assert abs(abs(sim.overlap(psi, ref)) - 1) < 1e-9


def kron_pauli(p, xvec, zvec) -> np.ndarray:
    """Reference: the p^n x p^n matrix of the normalised X^a Z^b as a kron
    chain of single-site factors X^a Z^b |k> = omega^(bk) |k + a>, each
    times i at p = 2 when a = b = 1."""
    w = sim.omega_powers(p)
    ops = []
    for a, b in zip(xvec, zvec):
        op = np.zeros((p, p), dtype=np.complex128)
        for k in range(p):
            op[(k + a) % p, k] = w[(b * k) % p]
        ops.append(1j * op if p == 2 and a and b else op)
    # qudit 0 is least significant, so it goes last in the kron chain
    return reduce(np.kron, reversed(ops))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_matrix_free_pauli_matches_kron(p, n, data):
    xvec, zvec = (np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
                  for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(p**n) + 1j * rng.standard_normal(p**n)
    got = sim._apply_pauli(v.reshape([p] * n), p, xvec, zvec).reshape(-1)
    assert np.allclose(got, kron_pauli(p, xvec, zvec) @ v, atol=1e-12)


def scan_stabilizer_state(p, x, z) -> np.ndarray:
    """Reference: the kron projectors (1/p) sum_j g^j applied to basis
    seeds in index order; the first nonzero projection, normalised."""
    ops = [kron_pauli(p, a, b) for a, b in zip(x, z)]
    for v in np.eye(p ** x.shape[1], dtype=np.complex128):
        for op in ops:
            v = sum(np.linalg.matrix_power(op, j) @ v for j in range(p)) / p
        if np.linalg.norm(v) > 1e-8:
            return v / np.linalg.norm(v)
    raise AssertionError("no +1 joint eigenvector")


def test_stabilizer_state_matches_kron_projector_scan():
    # local Cliffords move the support off |0...0>; the global phase must match too
    rng = np.random.default_rng(10)
    seeds_off_zero = 0
    for p, n in ((2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        for _ in range(4):
            adj = rng.integers(0, p, size=(n, n))
            adj = np.triu(adj, 1)
            m = apply_local_clifford(from_graph(Graph(p, (adj + adj.T) % p)),
                                     random_invertible(rng, p, n), random_y(rng, p, n))
            want = scan_stabilizer_state(p, m.x, m.z)
            assert np.allclose(sim.stabilizer_state(p, m.x, m.z).amps, want, atol=1e-12)
            seeds_off_zero += abs(want[0]) < 1e-9
    assert seeds_off_zero > 0


def test_stabilizer_state_seed_outside_zero():
    # Y x Y and X x X: their product is -Z x Z, so |00> has zero amplitude
    psi = sim.stabilizer_state(2, [[1, 1], [1, 1]], [[1, 1], [0, 0]])
    want = sim.StateVector(2, 2, np.array([0, 1, 1, 0]) / np.sqrt(2))
    assert abs(abs(sim.overlap(psi, want)) - 1) < 1e-12


def test_stabilizer_state_memory_linear_in_amplitudes():
    # a kron generator would take 2^28 x 16 B = 4 GiB here
    path = graph_from_edges(2, 14, [(i, i + 1, 1) for i in range(13)])
    m = from_graph(path)
    tracemalloc.start()
    try:
        psi = sim.stabilizer_state(2, m.x, m.z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * 2**14
    assert abs(abs(sim.overlap(psi, sim.build_graph_state(path))) - 1) < 1e-9


def test_gram_entropies_match_svd():
    # non-graph states have non-flat spectra; every cut size, both orientations
    rng = np.random.default_rng(9)
    for p, n in ((2, 5), (3, 4), (5, 3)):
        for _ in range(3):
            s = random_state(p, n, rng)
            for size in range(1, n):
                for cut in itertools.combinations(range(n), size):
                    lam = np.linalg.svd(sim._cut_matrices(s.amps, p, n, cut), compute_uv=False) ** 2
                    lam = lam[lam > 1e-12]
                    want = -(lam * np.log(lam)).sum() / np.log(p)
                    assert abs(sim.cut_entropy_edits(s, cut) - want) <= 1e-9


def _complex_spectrum_edits(s, cut):
    """The reference entropy: eigvalsh of the complex reduced density matrix."""
    lam = np.linalg.eigvalsh(sim.reduced_density(s, cut))
    lam = lam[lam > 1e-12]
    return float(-(lam * np.log(lam)).sum() / np.log(s.p))


def _every_cut(n):
    return [c for size in range(1, n) for c in itertools.combinations(range(n), size)]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.data())
def test_real_spectra_of_qubit_graph_states_match_complex(n, data):
    # a p = 2 graph state's amplitudes are +-2^(-n/2): real up to float noise
    word = data.draw(st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    g = graph_from_word(2, n, word)
    s = sim.build_graph_state(g)
    for cut in _every_cut(n):
        assert sim.real_if_close(sim._cut_matrices(s.amps, 2, n, cut)).dtype == np.float64
        ent = sim.cut_entropy_edits(s, cut)
        assert abs(ent - _complex_spectrum_edits(s, cut)) <= 1e-12
        assert abs(ent - cut_edits(g, cut)) <= 1e-9


def test_qubit_stabilizer_state_with_imaginary_amplitudes_stays_complex():
    # stabilized by Y_v Z_N(v): S on every qubit of |G>, amplitudes in {+-1, +-i} 2^(-n/2)
    g = graph_from_edges(2, 5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1), (0, 2, 1)])
    s = sim.stabilizer_state(2, np.eye(5, dtype=np.int64), g.adj + np.eye(5, dtype=np.int64))
    assert np.abs(s.amps.imag).max() > 0.1
    for cut in _every_cut(5):
        m = sim._cut_matrices(s.amps, 2, 5, cut)
        assert sim.real_if_close(m) is m
        ent = sim.cut_entropy_edits(s, cut)
        assert abs(ent - _complex_spectrum_edits(s, cut)) <= 1e-12
        assert abs(ent - cut_edits(g, cut)) <= 1e-9


@pytest.mark.parametrize("p,n", [(5, 6), (2, 14)], ids=["complex", "real"])
def test_gram_entropies_allocate_no_stack_sized_temporary(p, n):
    # the realness test allocates nothing of the stack's size (a bool mask over
    # this stack would be 1 MiB) beyond the real copy it returns; the whole call
    # holds one stack-sized array (the conjugate) and the Gram stack, or the
    # real halves of both. The cut is the n/2 most significant qudits, whose
    # matrices are a view of the amplitude stack.
    side = p ** (n // 2)
    stack = sim.omega_powers(p)[np.random.default_rng(3).integers(0, p, (64, side, side))] / side
    cut = tuple(range(n // 2, n))
    assert np.shares_memory(sim._cut_matrices(stack.reshape(64, -1), p, n, cut), stack)
    real = p == 2
    peaks = []
    for run in (sim.real_if_close, lambda m: sim.cut_entropies(m.reshape(64, -1), p, n, cut)):
        tracemalloc.start()
        try:
            run(stack)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    half, gram, slack = stack.nbytes // 2, 64 * side * side * 16, 256 << 10
    assert peaks[0] <= (half if real else 0) + slack
    assert peaks[1] <= (half + gram // 2 if real else stack.nbytes + gram) + slack


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.sampled_from([(), (3,), (2, 2)]),
       st.sampled_from(["none", "single", "stacked"]), st.data())
def test_phase_exponents_match_scalar_sum(p, n, stack, labels, data):
    if p == 5 and n == 5:
        stack = ()  # keeps the scalar reference under a second
    edges = list(itertools.combinations(range(n), 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(0, p, size=stack + (len(edges),))
    words[..., rng.random(len(edges)) < 0.3] = 0  # slots empty across the whole stack
    label = {"none": None, "single": rng.integers(0, p, size=n),
             "stacked": rng.integers(0, p, size=stack + (n,))}[labels]
    got = sim._phase_exponents(p, n, words, label)
    assert got.shape == stack + (p,) * n
    for pos in np.ndindex(*stack):
        lab = None if label is None else label if label.ndim == 1 else label[pos]
        for k in itertools.product(range(p), repeat=n):  # k[i]: digit of qudit i
            want = sum(int(w) * k[i] * k[j] for w, (i, j) in zip(words[pos], edges))
            if lab is not None:
                want += sum(int(l) * ki for l, ki in zip(lab, k))
            assert got[pos + k[::-1]] == want % p  # axis n-1-i holds qudit i


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2)])
def test_single_qudit_paulis_match_kron(p, n):
    rng = np.random.default_rng(11)
    s = random_state(p, n, rng)
    for i in range(n):
        for power in (1, p - 1, p + 1, -1):
            e = np.zeros(n, dtype=np.int64)
            e[i] = power % p
            want_x = kron_pauli(p, e, 0 * e) @ s.amps
            want_z = kron_pauli(p, 0 * e, e) @ s.amps
            assert np.allclose(sim.apply_x(s, i, power).amps, want_x, atol=1e-12)
            assert np.allclose(sim.apply_z(s, i, power).amps, want_z, atol=1e-12)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 3), (3, 4)])
def test_cz_matches_diagonal(p, n):
    rng = np.random.default_rng(12)
    s = random_state(p, n, rng)
    w = sim.omega_powers(p)
    for i, j in itertools.permutations(range(n), 2):
        power = int(rng.integers(-p, 2 * p))
        diag = np.array([w[(power * k[i] * k[j]) % p]
                         for k in itertools.product(range(p), repeat=n)])
        # product() runs qudit 0 slowest; the amplitude index has it least significant
        diag = diag.reshape([p] * n).transpose().reshape(-1)
        assert np.allclose(apply_cz(s, i, j, power).amps, diag * s.amps, atol=1e-12)


def test_build_graph_state_holds_no_tables():
    path = graph_from_edges(2, 16, [(i, i + 1, 1) for i in range(15)])
    state_bytes = 16 * 2**16
    tracemalloc.start()
    try:
        s = sim.build_graph_state(path)
        peak = tracemalloc.get_traced_memory()[1]
        del s
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * state_bytes
    assert left <= state_bytes // 64


def test_single_qudit_state_at_large_p():
    # no edge, so no p x p product table (65537^2 entries) may be built
    p = 65537
    s = sim.build_labeled(LabeledGraph(Graph(p, [[0]]), [3]))
    assert np.allclose(s.amps, np.exp(2j * np.pi * 3 * np.arange(p) / p) / np.sqrt(p))


@pytest.mark.parametrize("act", [
    lambda s: sim.apply_x(s, 2),
    lambda s: sim.apply_x(s, -1),
    lambda s: sim.apply_z(s, -1),
    lambda s: apply_cz(s, 0, -2),
    lambda s: apply_cz(s, 0, 2),
    lambda s: sim.z_measure_dense(s, 2, 0),
    lambda s: sim.z_measure_dense(s, -1, 0),
    lambda s: sim.bell_measure(s, (0, 2), 0, 0),
], ids=["x-n", "x-neg", "z-neg", "cz-neg", "cz-n", "zmeas-n", "zmeas-neg", "bell-n"])
def test_qudit_index_out_of_range(act):
    s = sim.build_graph_state(single_edge(3))
    with pytest.raises(ValueError, match=r"qudit -?\d+ is not in \[0, 2\)"):
        act(s)


def test_basis_state_checks_cap_and_digit_count():
    with pytest.raises(sim.TooLargeError):
        basis_state(2, 30, [0] * 30)
    for digits in ([1, 1, 1], [1]):
        with pytest.raises(ValueError, match="expected 2 digits"):
            basis_state(2, 2, digits)
    assert basis_state(3, 2, [1, 2]).amps[m_idx(3, [1, 2])] == 1



def _per_cut_entropies(amps, p, n, cut):
    """cut_entropies as it ran when realness was decided per cut: the rule
    applied to the transposed cut matrices, then a contiguous real copy."""
    mats = sim._cut_matrices(amps, p, n, cut)
    if mats.shape[-2] > mats.shape[-1]:
        mats = mats.swapaxes(-1, -2)
    im = mats.imag
    if im.max(initial=0.0) < sim._REAL_TOL and im.min(initial=0.0) > -sim._REAL_TOL:
        mats = np.ascontiguousarray(mats.real)
    lam = np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2))
    lam = np.where(lam > 1e-12, lam, 1.0)
    return -(lam * np.log(lam)).sum(axis=-1) / np.log(p)


def _imaginary_qubit_state():
    g = graph_from_edges(2, 5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1), (0, 2, 1)])
    return sim.stabilizer_state(2, np.eye(5, dtype=np.int64), g.adj + np.eye(5, dtype=np.int64))


@pytest.mark.parametrize("p,n", [(2, 3), (2, 6), (2, 8), (3, 4), (3, 6), (5, 4), ("i", 5)])
def test_entropies_equal_the_per_cut_realness_formula(p, n):
    rng = np.random.default_rng(11)
    if p == "i":
        states = [_imaginary_qubit_state()]
    else:
        words = rng.integers(0, p, (4, n * (n - 1) // 2))
        states = [sim.build_graph_state(graph_from_word(p, n, w)) for w in words]
    p = states[0].p
    real = p == 2 and len(states) == 4  # qubit graph states, not the +-i state
    assert all((s.field_amps.dtype == np.float64) == real for s in states)
    for cut in _every_cut(n):
        for s in states:  # exact: the same operands reach BLAS
            assert sim.cut_entropy_edits(s, cut) == float(_per_cut_entropies(s.amps, p, n, cut))
        stack = np.stack([s.amps for s in states])
        assert np.array_equal(sim.cut_entropies(stack, p, n, cut), _per_cut_entropies(stack, p, n, cut))


@pytest.mark.parametrize("noise,real", [(0.0, True), (50.0, True), (-99.0, True), (101.0, False), (-101.0, False)])
def test_field_view_is_read_only_computed_once_and_real_by_the_old_rule(monkeypatch, noise, real):
    amps = np.full(16, 0.25, dtype=np.complex128)
    amps[5] += 1j * noise * np.finfo(np.float64).eps
    s = sim.StateVector(2, 4, amps)
    calls = []
    decide = sim.real_if_close
    monkeypatch.setattr(sim, "real_if_close", lambda a: calls.append(a) or decide(a))
    view = s.field_amps
    for cut in _every_cut(4):
        sim.cut_entropy_edits(s, cut)
    assert len(calls) == 1 and s.field_amps is view
    assert not view.flags.writeable
    for cut in _every_cut(4):  # the rule once applied to each cut's matrices
        assert (np.real_if_close(sim._cut_matrices(s.amps, 2, 4, cut)).dtype == np.float64) == real
    if real:
        assert view.dtype == np.float64 and np.shares_memory(view, s.amps)
        assert np.array_equal(view, s.amps.real)
    else:
        assert view is s.amps


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4)])
def test_check1_decides_realness_once_per_stack(monkeypatch, p, n):
    # check 1 reads every cut of each amplitude stack (a cap of 100 states
    # here): realness is decided once per stack, and the worst delta equals
    # that of cut_entropies deciding per cut
    from amegraph import entanglement, repro

    words = np.random.default_rng(p).integers(0, p, (250, n * (n - 1) // 2))
    monkeypatch.setattr(sim, "DEFAULT_CAP", 100 * p**n)
    calls = []
    decide = sim.real_if_close
    monkeypatch.setattr(sim, "real_if_close", lambda a: calls.append(len(a)) or decide(a))
    got = repro._entropy_rank_delta(p, n, words)
    assert calls == [100, 100, 50]
    monkeypatch.setattr(sim, "real_if_close", decide)
    want = 0.0
    for lo in range(0, len(words), 100):
        amps = sim.graph_amplitudes(p, n, words[lo : lo + 100])
        assert (decide(amps).dtype == np.float64) == (p == 2)
        graphs = [graph_from_word(p, n, w) for w in words[lo : lo + 100]]
        for m in range(1, n // 2 + 1):
            for cut in entanglement.cut_plan(n, tuple((v,) for v in range(n)), m).cuts:
                ranks = [cut_edits(g, cut) for g in graphs]
                want = max(want, float(np.abs(sim.cut_entropies(amps, p, n, cut) - ranks).max()))
    assert got == want


def test_real_stacks_are_returned_at_once():
    # a float stack's .imag would be a zero copy of it; none is made
    amps = sim.graph_amplitudes(2, 6, np.random.default_rng(2).integers(0, 2, (16, 15)))
    real = np.ascontiguousarray(amps.real)
    tracemalloc.start()
    try:
        assert sim.real_if_close(real) is real
        assert tracemalloc.get_traced_memory()[1] < real.nbytes
    finally:
        tracemalloc.stop()
    for cut in [(0,), (1, 4), (0, 2, 5)]:
        assert np.array_equal(sim.cut_entropies(real, 2, 6, cut), sim.cut_entropies(amps, 2, 6, cut))
