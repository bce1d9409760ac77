import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amegraph import graph as gr
from amegraph.graph import (
    CzCircuit,
    Graph,
    LabeledGraph,
    canonical_form,
    canonical_form_grouped,
    circuit_from_graph,
    edge_word,
    format_circuit,
    format_graph,
    format_graph_line,
    graph_from_edges,
    graph_from_word,
    graphs_from_words,
    op_mult,
    op_star,
    parse_graph,
    permute,
    slot_matrix,
    to_dot,
    truncate,
    z_measure_symbolic,
)
from support import parse_graph_line

C4_EDGES = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]
QUAD_EDGES = [(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 1)]


def c4() -> Graph:
    return graph_from_edges(2, 4, C4_EDGES)


def quad() -> Graph:
    return graph_from_edges(3, 4, QUAD_EDGES)


def test_c4_adjacency():
    g = c4()
    want = np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
    )
    assert (g.adj == want).all()


def test_empty_edge_list():
    g = graph_from_edges(2, 3, [])
    assert (g.adj == 0).all() and g.n == 3


def test_construction_errors():
    with pytest.raises(gr.SelfLoopError):
        graph_from_edges(2, 3, [(1, 1, 1)])
    with pytest.raises(gr.DuplicateEdgeError):
        graph_from_edges(2, 3, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(gr.WeightRangeError):
        graph_from_edges(2, 3, [(0, 1, 2)])


@pytest.mark.parametrize("p, adj, error, message", [
    (4, np.zeros((2, 2)), ValueError, "p = 4 is not prime"),
    (2, np.zeros((2, 3)), ValueError, "adjacency must be square"),
    (2, np.zeros((1, 2, 2)), ValueError, "adjacency must be square"),
    (2, [[0, 2], [2, 0]], gr.WeightRangeError, "weights must lie in [0, p)"),
    (2, [[0, 1], [0, 0]], ValueError, "adjacency must be symmetric"),
    (2, [[1, 0], [0, 0]], gr.SelfLoopError, "diagonal must be zero"),
], ids=["not-prime", "not-square", "stacked", "weight", "asymmetric", "diagonal"])
def test_graph_checks(p, adj, error, message):
    with pytest.raises(error) as got:
        Graph(p, adj)
    assert str(got.value) == message


def test_zero_weight_edge_dropped():
    g = graph_from_edges(3, 3, [(0, 1, 0), (1, 2, 1)])
    assert g.edges() == [(1, 2, 1)]


def test_truncate_examples():
    g = c4()
    path = truncate(g, [3])
    assert path.n == 3 and path.edges() == [(0, 1, 1), (0, 2, 1)]
    assert truncate(g, []) == g
    pair = truncate(g, [0, 3])
    assert pair.n == 2 and pair.edges() == []


def test_op_mult_identity_and_scale():
    g = quad()
    assert op_mult(g, 2, 1) == g
    scaled = op_mult(g, 3, 2)
    assert scaled.adj[1, 3] == 1 and scaled.adj[2, 3] == 2
    with pytest.raises(gr.InvalidRewriteError):
        op_mult(g, 0, 0)


def test_op_mult_qubits_identity():
    g = c4()
    for v in range(4):
        assert op_mult(g, v, 1) == g


def test_op_star_examples():
    g = c4()
    assert op_star(g, 0, 0) == g
    star = op_star(g, 0, 1)
    assert sorted(star.edges()) == [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]


def test_op_star_inverse_and_structure():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        adj = rng.integers(0, p, size=(n, n))
        adj = (adj + adj.T) % p
        np.fill_diagonal(adj, 0)
        g = Graph(p, adj)
        v = int(rng.integers(n))
        a = int(rng.integers(1, p))
        h = op_star(g, v, a)
        assert (h.adj == h.adj.T).all() and not np.diag(h.adj).any()
        assert op_star(h, v, (p - a) % p) == g
        b, c = int(rng.integers(1, p)), int(rng.integers(1, p))
        assert op_mult(op_mult(g, v, b), v, c) == op_mult(g, v, (b * c) % p)


def test_z_measure_symbolic_examples():
    g = c4()
    lg = LabeledGraph(g, np.zeros(4, dtype=int))
    out = z_measure_symbolic(lg, (1,), (1,))
    assert out.graph == truncate(g, (1,))
    assert out.label.tolist() == [1, 0, 1]

    out0 = z_measure_symbolic(lg, (1,), (0,))
    assert out0.label.tolist() == [0, 0, 0]

    out2 = z_measure_symbolic(lg, (0, 1), (1, 1))
    assert out2.graph.edges() == [(0, 1, 1)]
    assert out2.label.tolist() == [1, 1]


@pytest.mark.parametrize("cut,msg", [
    ([-1], r"vertex -1 is not in \[0, 4\)"),
    ([9], r"vertex 9 is not in \[0, 4\)"),
    ([0, 0], "vertex 0 is given twice"),
], ids=["neg", "n", "repeat"])
def test_truncate_and_z_measure_reject_bad_vertex_sets(cut, msg):
    g = c4()
    with pytest.raises(ValueError, match=msg):
        truncate(g, cut)
    with pytest.raises(ValueError, match=msg):
        z_measure_symbolic(LabeledGraph(g, np.zeros(4, dtype=int)), cut, [1] * len(cut))


def test_z_measure_keeps_existing_label():
    g = c4()
    lg = LabeledGraph(g, np.array([1, 1, 0, 1]))
    out = z_measure_symbolic(lg, (1,), (0,))
    assert out.label.tolist() == [1, 0, 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 6), st.sampled_from([(1,), (3,), (2, 2)]), st.data())
def test_z_measure_words_matches_symbolic(p, n, stack, data):
    # row by row: the survivors' words are truncate's, and each label is the
    # old label on the survivors plus sum_i outcome_i * (row of cut vertex i)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(0, p, stack + (n * (n - 1) // 2,))
    labels = rng.integers(0, p, stack + (n,))
    cut = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    outs = rng.integers(-p, 2 * p, len(cut))
    got_words, got_labels = gr.z_measure_words(p, n, words, labels, cut, outs)
    keep = [u for u in range(n) if u not in cut]
    for pos in np.ndindex(*stack):
        g = graph_from_word(p, n, words[pos])
        want = z_measure_symbolic(LabeledGraph(g, labels[pos]), cut, outs)
        label = [(labels[pos][u] + sum(int(o) * int(g.adj[v, u]) for v, o in zip(cut, outs))) % p for u in keep]
        assert got_words[pos].tolist() == edge_word(truncate(g, cut)).tolist() == edge_word(want.graph).tolist()
        assert got_labels[pos].tolist() == label == want.label.tolist()


def test_permute_and_canonical():
    g = c4()
    assert permute(g, [0, 1, 2, 3]) == g
    rng = np.random.default_rng(11)
    base = canonical_form(g)
    for _ in range(10):
        perm = rng.permutation(4).tolist()
        assert canonical_form(permute(g, perm)) == base
    # two differently labeled 4-cycles agree
    other = graph_from_edges(2, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert canonical_form(other) == base


def test_canonical_form_grouped_preserves_property():
    from amegraph.witnesses import ame44_grouped
    from amegraph.entanglement import is_ame_grouped

    g, gs = ame44_grouped()
    groups = [tuple(range(t * gs, (t + 1) * gs)) for t in range(g.n // gs)]
    cf = canonical_form_grouped(g, gs)
    assert is_ame_grouped(cf, groups).is_ame


def _brute_min(g: Graph, perms) -> np.ndarray:
    """Row-major smallest of permute(g, perm).adj over `perms`, by a
    lexicographic sort of the full flattened adjacencies."""
    perms = np.asarray(perms)
    flat = g.adj[perms[:, :, None], perms[:, None, :]].reshape(len(perms), -1)
    k = np.lexsort(flat.T[::-1])[0]
    assert (flat[k] == permute(g, perms[k].tolist()).adj.ravel()).all()
    return flat[k].reshape(g.n, g.n)


@st.composite
def _graphs(draw, sizes=range(2, 7), primes=(2, 3, 5, 257)):
    n = draw(st.sampled_from(sizes))
    p = draw(st.sampled_from(primes))
    word = draw(st.lists(st.integers(0, p - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return graph_from_word(p, n, word)


@settings(max_examples=40, deadline=None)
@given(_graphs())
def test_canonical_form_is_brute_force_minimum(g):
    perms = list(itertools.permutations(range(g.n)))
    assert (canonical_form(g).adj == _brute_min(g, perms)).all()


@settings(max_examples=40, deadline=None)
@given(_graphs(), st.data())
def test_canonical_form_invariant_under_permute(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_form(permute(g, perm)) == canonical_form(g)


def test_canonical_form_multi_limb_n8_p7():
    # 7^28 exceeds 2^53, so the edge word is compared in two limbs
    rng = np.random.default_rng(8)
    upper = np.triu(rng.integers(0, 7, size=(8, 8)), 1)
    g = Graph(7, upper + upper.T)
    perms = list(itertools.permutations(range(8)))
    assert (canonical_form(g).adj == _brute_min(g, perms)).all()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.sampled_from([2, 3, 5, 257]), st.data())
def test_canonical_form_grouped_is_brute_force_minimum(shape, p, data):
    gcount, gsize = shape
    n = gcount * gsize
    word = data.draw(st.lists(st.integers(0, p - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    g = graph_from_word(p, n, word)
    perms = gr._group_perms(gcount, gsize)
    blocks = np.arange(n) // gsize
    assert len({tuple(r) for r in perms.tolist()}) == len(perms)
    assert len(perms) == math.factorial(gcount) * math.factorial(gsize) ** gcount
    for perm in perms:
        # every relabeling maps each block onto one block
        assert all(len(set(blocks[perm[blocks == t]])) == 1 for t in range(gcount))
    assert (canonical_form_grouped(g, gsize).adj == _brute_min(g, perms)).all()
    perm = perms[data.draw(st.integers(0, len(perms) - 1))]
    assert canonical_form_grouped(permute(g, perm.tolist()), gsize) == canonical_form_grouped(g, gsize)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(4, 1), (5, 1), (2, 2), (3, 2)]), st.sampled_from([2, 3, 5, 13, 257]), st.data())
def test_is_minimal_word_is_brute_force_minimality(shape, p, data):
    # a word is minimal when no relabeling of _group_perms, applied by
    # permute and read back by edge_word, gives a smaller word. Weights
    # often from {0, 1, p - 1} make ties; n = 5 at p = 257 and n = 6 at
    # p = 13 and 257 are past 2^53, where the later limbs decide them
    gcount, gsize = shape
    n = gcount * gsize
    slots = n * (n - 1) // 2
    weight = st.sampled_from(sorted({0, 1, p - 1})) | st.integers(0, p - 1)
    drawn = data.draw(st.lists(st.lists(weight, min_size=slots, max_size=slots), min_size=1, max_size=4))
    words = np.array(drawn, dtype=np.int64)
    words = np.vstack([words, gr.canonical_words(words, p, gcount, gsize)])
    perms = gr._group_perms(gcount, gsize).tolist()

    def minimal(word):
        g = graph_from_word(p, n, word)
        return all(tuple(edge_word(permute(g, perm))) >= tuple(word) for perm in perms)

    want = [minimal(w) for w in words]
    assert all(want[len(drawn):])  # canonical words are minimal
    assert gr.is_minimal_word(words, p, gcount, gsize).tolist() == want


@pytest.mark.parametrize("gcount, gsize", [(2, 1), (4, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_row_zero_of_the_relabelings_is_the_identity(gcount, gsize):
    # is_minimal_word and _swap_smaller compare every relabeling with row 0
    n = gcount * gsize
    slots = n * (n - 1) // 2
    assert gr._group_perms(gcount, gsize)[0].tolist() == list(range(n))
    for base in (2, 13, 257):
        gathers, limbs = gr._relabelings(gcount, gsize, base)
        assert gathers[0].tolist() == list(range(slots))
        big = [float(base**e) for e in range(slots - 1, -1, -1)]  # the word's own big-endian number
        assert gr._swap_keys(gcount, gsize, base)[:, 0].tolist() == big
        word = np.arange(slots) % base
        number = 0
        for column_powers in limbs:  # limb by limb, the same number
            identity = column_powers[:, 0]
            number = number * base ** int(np.count_nonzero(identity)) + int(word @ identity)
        assert number == sum(int(w) * base ** (slots - 1 - s) for s, w in enumerate(word))


@pytest.mark.parametrize("gcount, gsize", [(3, 4), (2, 6)])
def test_canonical_form_grouped_refuses_past_relabeling_bound(gcount, gsize):
    # 3! * 4!^3 = 82,944 and 2! * 6!^2 = 1,036,800 relabelings, over 8!
    n = gcount * gsize
    g = Graph(2, np.zeros((n, n), dtype=np.int64))
    with pytest.raises(ValueError, match="at most 40320 relabelings"):
        canonical_form_grouped(g, gsize)


def test_relabeling_bound_is_eight_factorial():
    for gcount, gsize in ((8, 1), (1, 8), (4, 3), (2, 5), (5, 2)):  # 31,104 at 4 x 3
        gr.check_relabelings(gcount, gsize)
    # the huge ones are refused without forming gcount! or gsize!^gcount
    for gcount, gsize in ((9, 1), (1, 9), (3, 4), (2, 6), (6, 2), (10**9, 2), (2, 10**9)):
        with pytest.raises(ValueError, match="at most 40320 relabelings"):
            gr.check_relabelings(gcount, gsize)
    with pytest.raises(ValueError, match="at most 40320 relabelings"):
        canonical_form(Graph(2, np.zeros((9, 9), dtype=np.int64)))


def test_graph_from_edges_bounds_bytes_before_allocating():
    # 65537^2 int64 weights would be 32 GiB; 725^2 * 8 bytes exceed
    # gfp._TABLE_CAP = 2^22, and 724^2 * 8 do not
    tracemalloc.start()
    try:
        for text in ("3 65537\n", "3 725\n"):
            with pytest.raises(ValueError, match="bytes of adjacency"):
                parse_graph(text)
        with pytest.raises(ValueError, match="bytes of adjacency"):
            parse_graph_line("3 725")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert graph_from_edges(3, 724, [(0, 723, 2)]).edges() == [(0, 723, 2)]


def test_edge_word_roundtrip():
    g = quad()
    assert edge_word(g).tolist() == [1, 1, 0, 0, 2, 1]
    assert graph_from_word(3, 4, edge_word(g)) == g


def _graph_of_word(p: int, n: int, word) -> Graph:
    a = np.zeros((n, n), dtype=np.int64)
    a[np.triu_indices(n, 1)] = word
    return Graph(p, a + a.T)


def test_graphs_from_words_match_graph():
    words = np.random.default_rng(4).integers(0, 5, size=(40, 10), dtype=np.uint8)
    graphs = graphs_from_words(5, 5, words)
    assert len(graphs) == len(words)
    for word, g in zip(words, graphs):
        ref = _graph_of_word(5, 5, word)
        assert g == ref and hash(g) == hash(ref)
        assert edge_word(g).tolist() == word.tolist() and g.adj.dtype == np.int64
        assert not g.adj.flags.writeable
        with pytest.raises(ValueError):
            g.adj[0, 1] = 1
    assert graphs_from_words(5, 5, []) == [] and graphs_from_words(5, 5, words[:0]) == []


@pytest.mark.parametrize("p, word", [(3, [0, 3, 0]), (3, [0, 0, -1]), (4, [0, 1, 0])],
                         ids=["weight-p", "negative", "not-prime"])
def test_graphs_from_words_errors_match_graph(p, word):
    with pytest.raises(ValueError) as want:
        _graph_of_word(p, 3, word)
    with pytest.raises(ValueError) as got:
        graphs_from_words(p, 3, [[1, 0, 0], word])
    assert type(got.value) is want.type and str(got.value) == str(want.value)


def test_truncate_and_permute_skip_revalidation(monkeypatch):
    # a principal submatrix or a relabeling of a checked adjacency is valid
    rng = np.random.default_rng(5)
    gs = [_graph_of_word(7, 6, rng.integers(0, 7, size=15)) for _ in range(5)]
    monkeypatch.setattr(gr, "_checked_adjacency", lambda *a: pytest.fail("re-validated"))
    for g in gs:
        perm = rng.permutation(6).tolist()
        cut = sorted(rng.choice(6, size=int(rng.integers(0, 6)), replace=False).tolist())
        keep = [v for v in range(6) if v not in cut]
        for out, idx in ((truncate(g, cut), keep), (permute(g, perm), perm)):
            assert np.array_equal(out.adj, g.adj[np.ix_(idx, idx)]) and out.p == 7
            assert out.adj.dtype == np.int64 and out.adj.flags.c_contiguous
            assert not out.adj.flags.writeable
            assert hash(out) == hash((7, len(idx), g.adj[np.ix_(idx, idx)].tobytes()))


def test_format_roundtrip():
    g = quad()
    text = format_graph(g)
    assert text.splitlines()[0] == "3 4"
    assert parse_graph(text) == g
    assert format_graph(parse_graph(text)) == text


def test_parse_comments_and_errors():
    assert parse_graph("# hi\n2 2\n1 2 1\n").n == 2
    with pytest.raises(gr.GraphFormatError):
        parse_graph("")
    with pytest.raises(gr.GraphFormatError):
        parse_graph("2\n")
    with pytest.raises(gr.GraphFormatError):
        parse_graph("2 2\n1 2\n")


def test_graph_line_roundtrip():
    g = quad()
    assert parse_graph_line(format_graph_line(g)) == g


def test_circuit_and_dot():
    g = quad()
    circ = circuit_from_graph(g)
    assert circ == CzCircuit(3, 4, ((0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 1)))
    text = format_circuit(circ)
    assert text.splitlines()[0] == "PREP_ALL |0bar>"
    assert "CZ 2 4 ^2" in text
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    assert '2 -- 4 [label="2"];' in dot


def test_single_edge_circuit():
    g = graph_from_edges(2, 2, [(0, 1, 1)])
    assert format_circuit(circuit_from_graph(g)) == "PREP_ALL |0bar>\nCZ 1 2 ^1\n"


def test_empty_graph_circuit():
    g = Graph(2, np.zeros((2, 2), dtype=np.int64))
    assert format_circuit(circuit_from_graph(g)) == "PREP_ALL |0bar>\n"


@pytest.mark.parametrize("n", range(2, 10))
def test_slot_matrix_is_combinations_order(n):
    slot = slot_matrix(n)
    want = np.full((n, n), -1)
    for t, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        want[i, j] = want[j, i] = t
    assert (slot == want).all()
    assert not slot.flags.writeable


@settings(max_examples=40, deadline=None)
@given(_graphs(sizes=range(2, 9)))
def test_slot_matrix_indexes_edge_word(g):
    off = ~np.eye(g.n, dtype=bool)
    assert (edge_word(g)[slot_matrix(g.n)[off]] == g.adj[off]).all()


@settings(max_examples=60, deadline=None)
@given(_graphs(sizes=range(1, 9)))
def test_text_formats_round_trip(g):
    text, line = format_graph(g), format_graph_line(g)
    assert parse_graph(text) == g and format_graph(parse_graph(text)) == text
    assert parse_graph_line(line) == g and format_graph_line(parse_graph_line(line)) == line
