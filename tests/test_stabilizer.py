import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from amegraph import stabilizer as st
from amegraph import simulator as sim
from amegraph.codes import ame_generator_matrix, hamming433
from amegraph.entanglement import cut_edits, is_ame
from amegraph.graph import Graph, graph_from_edges, graph_from_word
from amegraph.stabilizer import (
    GeneratorMatrix,
    LocalCliffordY,
    apply_local_clifford,
    format_generator_matrix,
    from_graph,
    identity_y,
    is_valid,
    symplectic_products,
    to_graph,
)
from support import parse_generator_matrix


def quad():
    return graph_from_edges(3, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 1)])


def random_graph(rng, p, n) -> Graph:
    adj = rng.integers(0, p, size=(n, n))
    adj = (adj + adj.T) % p
    np.fill_diagonal(adj, 0)
    return Graph(p, adj)


def random_y(rng, p, n) -> LocalCliffordY:
    e = np.empty(n, dtype=np.int64)
    f = np.empty(n, dtype=np.int64)
    ep = np.empty(n, dtype=np.int64)
    fp = np.empty(n, dtype=np.int64)
    for i in range(n):
        while True:
            a, b, c = rng.integers(0, p, size=3)
            det_missing = None
            # solve a*d - b*c = 1 for d when possible
            if a % p:
                det_missing = (1 + b * c) * pow(int(a), -1, p) % p
                e[i], f[i], ep[i], fp[i] = a, b, c, det_missing
                break
            if b % p:
                # a = 0: need -b c = 1
                c_val = (-pow(int(b), -1, p)) % p
                e[i], f[i], ep[i], fp[i] = 0, b, c_val, rng.integers(0, p)
                break
    return LocalCliffordY(p, e, f, ep, fp)


def random_invertible(rng, p, n) -> np.ndarray:
    from amegraph import gfp

    while True:
        u = rng.integers(0, p, size=(n, n))
        if gfp.mat_rank(u, p) == n:
            return u


def test_from_graph_examples():
    g = quad()
    m = from_graph(g)
    assert (m.x == np.eye(4, dtype=int)).all()
    assert (m.z == g.adj).all()
    assert is_valid(m)
    m2 = from_graph(Graph(3, np.zeros((2, 2), dtype=np.int64)))
    assert (m2.x == np.eye(2, dtype=int)).all() and not m2.z.any()
    assert is_valid(m2)


def test_is_valid_examples():
    ham = ame_generator_matrix(hamming433())
    assert is_valid(ham)
    assert not symplectic_products(ham).any()
    # asymmetric Z block breaks the abelian condition
    bad_z = np.array([[0, 1], [0, 0]])
    bad = GeneratorMatrix(3, np.eye(2, dtype=int), bad_z)
    assert not is_valid(bad)
    dup = GeneratorMatrix(3, np.ones((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
    assert not is_valid(dup)


def test_apply_identity():
    m = ame_generator_matrix(hamming433())
    out = apply_local_clifford(m, np.eye(4, dtype=int), identity_y(3, 4))
    assert out == m


def test_handpicked_y_then_u_reaches_graph_form():
    m = ame_generator_matrix(hamming433())
    y = LocalCliffordY(
        3,
        np.ones(4, dtype=int),
        np.zeros(4, dtype=int),
        np.array([0, 0, 1, 1]),
        np.ones(4, dtype=int),
    )
    my = apply_local_clifford(m, np.eye(4, dtype=int), y)
    want_x = np.array([[1, 0, 1, 2], [0, 1, 1, 1], [0, 0, 1, 2], [0, 0, 1, 1]])
    want_z = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 2], [0, 1, 1, 1]])
    assert (my.x == want_x).all() and (my.z == want_z).all()

    u = np.array([[1, 0, 2, 0], [0, 1, 0, 2], [0, 0, 2, 2], [0, 0, 1, 2]])
    umy = apply_local_clifford(my, u, identity_y(3, 4))
    assert (umy.x == np.eye(4, dtype=int)).all()
    want_z2 = np.array([[2, 0, 2, 1], [0, 2, 2, 2], [2, 2, 1, 0], [1, 2, 0, 1]])
    assert (umy.z == want_z2).all()
    # clearing the printed diagonal gives the hand-derived endpoint
    g, transcript = to_graph(umy)
    assert [(i + 1, j + 1, w) for i, j, w in g.edges()] == [
        (1, 3, 2), (1, 4, 1), (2, 3, 2), (2, 4, 2),
    ]
    assert is_ame(g).is_ame
    assert len(transcript) == 1


def test_apply_errors():
    m = from_graph(quad())
    with pytest.raises(st.SingularUError):
        apply_local_clifford(m, np.zeros((4, 4), dtype=int), identity_y(3, 4))
    with pytest.raises(st.InvalidYError):
        LocalCliffordY(3, np.zeros(4, dtype=int), np.zeros(4, dtype=int),
                       np.zeros(4, dtype=int), np.zeros(4, dtype=int))


def test_validity_preserved_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 5))
        m = from_graph(random_graph(rng, p, n))
        u = random_invertible(rng, p, n)
        y = random_y(rng, p, n)
        out = apply_local_clifford(m, u, y)
        assert is_valid(out)
        # symplectic products are invariant under the row mix alone
        row_only = apply_local_clifford(m, u, identity_y(p, n))
        assert not symplectic_products(row_only).any()


def test_to_graph_identity_on_graph_form():
    g = quad()
    out, transcript = to_graph(from_graph(g))
    assert out == g and transcript == []


def test_to_graph_roundtrip_random():
    rng = np.random.default_rng(32)
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 5))
        g = random_graph(rng, p, n)
        m = apply_local_clifford(from_graph(g), random_invertible(rng, p, n), random_y(rng, p, n))
        out, transcript = to_graph(m)
        # transcript steps replay to the graph form
        cur = m
        for u, y in transcript:
            cur = apply_local_clifford(cur, u, y)
        assert (cur.x == np.eye(n, dtype=int)).all()
        assert Graph(p, cur.z) == out


def test_hamming_to_graph_is_ame():
    g, _ = to_graph(ame_generator_matrix(hamming433()))
    assert g.p == 3 and g.n == 4
    assert is_ame(g).is_ame


def test_to_graph_rejects():
    m = GeneratorMatrix(3, np.eye(2, dtype=int)[:1], np.zeros((1, 2), dtype=int))
    with pytest.raises(st.InvalidGeneratorError):
        to_graph(m)
    dup = GeneratorMatrix(3, np.ones((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
    with pytest.raises(st.InvalidGeneratorError):
        to_graph(dup)


def test_transcript_preserves_entropies():
    rng = np.random.default_rng(33)
    for p in (2, 3):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            g = random_graph(rng, p, n)
            m = apply_local_clifford(
                from_graph(g), random_invertible(rng, p, n), random_y(rng, p, n)
            )
            states = [sim.stabilizer_state(m.p, m.x, m.z)]
            cur = m
            for u, y in to_graph(m)[1]:
                cur = apply_local_clifford(cur, u, y)
                states.append(sim.stabilizer_state(cur.p, cur.x, cur.z))
            for cut_size in range(1, n // 2 + 1):
                for cut in itertools.combinations(range(n), cut_size):
                    ents = [sim.cut_entropy_edits(s, cut) for s in states]
                    assert max(ents) - min(ents) < 1e-8


def test_format_roundtrip():
    m = ame_generator_matrix(hamming433())
    text = format_generator_matrix(m)
    assert text.splitlines()[0] == "3 4 4"
    assert parse_generator_matrix(text) == m


@hs.composite
def _scrambled(draw, primes=(2, 3, 5, 257), max_n=6):
    """A random graph and its generator matrix under a random row change
    U and local Clifford Y (seeded from hypothesis)."""
    p = draw(hs.sampled_from(primes))
    n = draw(hs.integers(1, max_n))
    word = draw(hs.lists(hs.integers(0, p - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    g = graph_from_word(p, n, word)
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    return g, apply_local_clifford(from_graph(g), random_invertible(rng, p, n), random_y(rng, p, n))


@settings(max_examples=60, deadline=None)
@given(_scrambled())
def test_from_graph_to_graph_round_trip(gm):
    g, m = gm
    assert to_graph(from_graph(g)) == (g, [])
    out, transcript = to_graph(m)
    cur = m
    for u, y in transcript:
        cur = apply_local_clifford(cur, u, y)
    assert cur == from_graph(out)
    # a local Clifford keeps every cut rank
    for size in range(1, g.n // 2 + 1):
        for cut in itertools.combinations(range(g.n), size):
            assert cut_edits(out, cut) == cut_edits(g, cut)


@settings(max_examples=60, deadline=None)
@given(_scrambled())
def test_generator_matrix_format_round_trip(gm):
    _, m = gm
    text = format_generator_matrix(m)
    assert parse_generator_matrix(text) == m
    assert format_generator_matrix(parse_generator_matrix(text)) == text


@settings(max_examples=80, deadline=None)
@given(_scrambled((2, 3, 5, 13, 257), 8))
def test_to_graph_transcript_replays_through_the_checked_steps(gm):
    # the public apply_local_clifford validates U and Y at every step and
    # multiplies by U, which to_graph reads off its reductions instead
    _, m = gm
    out, transcript = to_graph(m)
    cur = m
    for u, y in transcript:
        cur = apply_local_clifford(cur, u, y)
    assert cur == from_graph(out)


@settings(max_examples=60, deadline=None)
@given(_scrambled((2, 3, 5, 13, 257), 8), hs.data())
def test_to_graph_refuses_dependent_or_noncommuting_rows(gm, data):
    g, _ = gm
    assume(g.n > 1)
    i, j = data.draw(hs.permutations(range(g.n)))[:2]
    rng = np.random.default_rng(data.draw(hs.integers(0, 2**32 - 1)))
    x, z = np.eye(g.n, dtype=np.int64), g.adj.copy()
    rows = [j if r == i else r for r in range(g.n)]
    dup = GeneratorMatrix(g.p, x[rows], z[rows])  # row i a copy of row j
    z[i, j] = (z[i, j] + 1) % g.p  # rows i and j no longer commute
    for m in (dup, GeneratorMatrix(g.p, x, z)):
        m = apply_local_clifford(m, random_invertible(rng, g.p, g.n), random_y(rng, g.p, g.n))
        assert not is_valid(m)
        with pytest.raises(st.InvalidGeneratorError, match=r"^rows must be independent and abelian$"):
            to_graph(m)
