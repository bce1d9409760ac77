import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amegraph import codes
from amegraph import gfp
from amegraph.entanglement import cut_edits, is_ame
from amegraph.repro import _codeword_state, _stabilized_by_displacements
from amegraph.simulator import build_graph_state, cut_entropy_edits
from amegraph.stabilizer import GeneratorMatrix, is_valid, to_graph
from support import format_code


def test_linear_code_validation():
    with pytest.raises(ValueError):
        codes.LinearCode(3, np.array([[1, 0], [2, 0], [0, 0], [0, 0]]))  # dependent columns


def test_parity_check_hamming_self_dual():
    c = codes.hamming433()
    h = codes.parity_check(c)
    assert (h == c.gen.T).all()
    assert ((h @ c.gen) % 3 == 0).all()


def test_parity_check_identity_code():
    c = codes.LinearCode(5, np.eye(3, dtype=int))
    assert codes.parity_check(c).shape == (0, 3)


def test_parity_check_repetition():
    c = codes.LinearCode(2, np.array([[1], [1], [1]]))
    h = codes.parity_check(c)
    assert h.shape == (2, 3)
    want = np.array([[1, 1, 0], [1, 0, 1]])
    stacked = np.vstack([h, want])
    assert gfp.mat_rank(stacked, 2) == 2
    assert ((h @ c.gen) % 2 == 0).all()


def test_parity_check_rank_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        gen = rng.integers(0, p, size=(n, k))
        if gfp.mat_rank(gen, p) != k:
            continue
        c = codes.LinearCode(p, gen)
        h = codes.parity_check(c)
        assert h.shape == (n - k, n)
        assert gfp.mat_rank(h, p) == n - k
        assert ((h @ gen) % p == 0).all()


def test_min_distance_examples():
    assert codes.min_distance(codes.hamming433()) == 3
    rep = codes.LinearCode(2, np.array([[1], [1], [1]]))
    assert codes.min_distance(rep) == 3
    assert codes.min_distance(codes.grs_code(7, 6, 3)) == 4


def test_min_distance_too_large():
    # 2^24 codewords exceed MAX_WORDS = 10^7: refused before the first is formed
    c = codes.LinearCode(2, np.eye(24, dtype=int))
    with pytest.raises(codes.TooLargeError, match="16777216 codewords exceed the enumeration cap"):
        codes.min_distance(c)


def test_mds_flags():
    ham = codes.hamming433()
    assert codes.is_mds(ham)
    codes.certified(ham)
    # the 3-bit repetition code is MDS with k = floor(3/2): its codeword
    # state is the GHZ state, which is AME
    rep = codes.LinearCode(2, np.array([[1], [1], [1]]))
    assert codes.is_mds(rep)
    g = codes.certified(rep)[1]
    report = is_ame(g, full=True)
    assert report.is_ame and list(report.cut_ranks.values()) == [1, 1, 1]
    graph_state, ghz = build_graph_state(g), _codeword_state(rep)
    for cut, rank in report.cut_ranks.items():
        assert abs(cut_entropy_edits(graph_state, cut) - rank) < 1e-9
        assert abs(cut_entropy_edits(ghz, cut) - rank) < 1e-9
    # the 4-bit repetition code is MDS too, but k = 1 < floor(4/2)
    rep4 = codes.LinearCode(2, np.ones((4, 1), dtype=np.int64))
    assert codes.is_mds(rep4)
    with pytest.raises(codes.NotAmeCodeError, match=r"not AME: cut \{1,2\} has rank 1 < 2"):
        codes.certified(rep4)


def test_one_qudit_code_is_not_ame():
    with pytest.raises(codes.NotAmeCodeError, match="one qudit"):
        codes.certified(codes.LinearCode(3, np.array([[1]])))


@pytest.mark.parametrize("p,n,k", [(5, 4, 2), (7, 6, 3), (11, 4, 2), (13, 6, 3)])
def test_grs_is_mds(p, n, k):
    c = codes.grs_code(p, n, k)
    assert codes.min_distance(c) == n - k + 1


def test_grs_k1_repetition_like():
    c = codes.grs_code(5, 4, 1)
    assert codes.min_distance(c) == 4


def test_grs_errors():
    with pytest.raises(codes.LengthExceedsFieldError, match="^need n <= 4 for 5 distinct points$"):
        codes.grs_code(3, 5, 2)  # p + 2 points: past the point at infinity


@pytest.mark.parametrize("name", ["grs:3,4,2", "grs:5,6,3", "grs:7,8,4", "grs:11,12,6"])
def test_doubly_extended_grs_certifies(name):
    # n = p + 1: the points 0 .. p - 1 and the point at infinity
    c = codes.get_code(name)
    p, n, k = c.p, c.n, c.k
    assert n == p + 1 and c.gen[:p].tolist() == codes.grs_code(p, p, k).gen.tolist()
    assert c.gen[p].tolist() == [0] * (k - 1) + [1]
    g = codes.code_to_ame_graph(c)
    rep = is_ame(g, full=True)
    assert rep.is_ame and rep.witness is None
    assert len(rep.cut_ranks) == sum(math.comb(n, s) for s in range(1, k + 1))
    assert rep.cut_ranks == {cut: cut_edits(g, cut) for cut in rep.cut_ranks}
    assert all(rank == len(cut) for cut, rank in rep.cut_ranks.items())


@pytest.mark.parametrize("name", ["grs:11,10,5", "grs:13,14,7", "grs:17,16,8", "grs:17,18,9"])
def test_grs_graph_is_ame_for_even_n(name):
    # AME graph states exist for every even number of parties, from GRS
    # codes at the smallest prime p >= n - 1 (arXiv:1306.2879)
    c = codes.get_code(name)
    n, k = c.n, c.k
    assert 2 * k == n and codes.grs_code(c.p, n, k).gen.tolist() == c.gen.tolist()
    assert c.p == min(q for q in range(n - 1, 2 * n) if gfp.is_prime(q))
    g = codes.code_to_ame_graph(c)
    rep = is_ame(g)
    assert rep.is_ame and rep.witness is None
    cuts = list(itertools.combinations(range(n), k))
    assert len(rep.cut_ranks) == math.comb(n, k) and list(rep.cut_ranks) == cuts
    if n == 18:  # all 48,620 scalar ranks take seconds: a fixed sample
        rng = np.random.default_rng(18)
        cuts = [cuts[i] for i in rng.choice(len(cuts), size=2000, replace=False)]
    assert all(rep.cut_ranks[cut] == cut_edits(g, cut) == k for cut in cuts)


def test_ame_generator_matrix_exact():
    m = codes.ame_generator_matrix(codes.hamming433())
    want_x = np.array([[1, 0, 1, 2], [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    want_z = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 2], [0, 1, 1, 1]])
    assert (m.x == want_x).all() and (m.z == want_z).all()
    assert is_valid(m)


def test_ame_generator_matrix_grs_valid():
    assert is_valid(codes.ame_generator_matrix(codes.grs_code(5, 4, 2)))


def test_ame_generator_matrix_rejects_non_ame():
    # the GHZ code [3,1]_2 has one; the non-MDS [4,2,2]_2 code has none
    rep = codes.LinearCode(2, np.array([[1], [1], [1]]))
    m = codes.ame_generator_matrix(rep)
    assert is_valid(m) and m.x.tolist() == [[1, 1, 1], [0, 0, 0], [0, 0, 0]]
    pairs = codes.LinearCode(2, np.array([[1, 0], [1, 0], [0, 1], [0, 1]]))
    assert codes.min_distance(pairs) == 2
    with pytest.raises(codes.NotAmeCodeError, match=r"\[4,2\]_2 code state is not AME"):
        codes.ame_generator_matrix(pairs)


@pytest.mark.parametrize(
    "code",
    [codes.hamming433(), codes.grs_code(5, 4, 2), codes.grs_code(7, 6, 3)],
    ids=["hamming433", "grs542", "grs763"],
)
def test_code_to_ame_graph(code):
    g = codes.code_to_ame_graph(code)
    assert g.p == code.p and g.n == code.n
    assert is_ame(g).is_ame


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 6), st.data())
def test_cut_rank_gate_matches_min_distance(p, n, data):
    # the codeword state holds rank G[A] + rank G[A'] - k edits across every
    # cut A, so the gate passes exactly the MDS codes with k = floor(n/2)
    # or ceil(n/2)
    k = data.draw(st.integers(1, n))
    gen = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n * k, max_size=n * k))).reshape(n, k)
    assume(gfp.mat_rank(gen, p) == k)
    c = codes.LinearCode(p, gen)
    h = codes.parity_check(c)
    g = to_graph(GeneratorMatrix(p, np.vstack([gen.T, 0 * h]), np.vstack([0 * gen.T, h])))[0]
    for size in range(1, n):
        for cut in itertools.combinations(range(n), size):
            rest = [v for v in range(n) if v not in cut]
            assert cut_edits(g, cut) == gfp.mat_rank(gen[list(cut)], p) + gfp.mat_rank(gen[rest], p) - k
    if codes.min_distance(c) == n - k + 1 and k in (n // 2, (n + 1) // 2):
        assert codes.certified(c)[1] == g
    else:
        with pytest.raises(codes.NotAmeCodeError):
            codes.certified(c)


@pytest.mark.parametrize("n", range(3, 18, 2))
def test_grs_graph_is_ame_for_odd_n(n):
    # AME graph states exist for odd numbers of parties as well, from GRS
    # codes with k = (n - 1)/2 or (n + 1)/2 at the smallest prime p >= n - 1;
    # n = 3 is the doubly extended [3, k]_2 code
    p = min(q for q in range(n - 1, 2 * n) if gfp.is_prime(q))
    m = n // 2
    cuts = list(itertools.combinations(range(n), m))
    if n > 13:  # every scalar rank would take seconds: a fixed sample
        rng = np.random.default_rng(n)
        cuts = [cuts[i] for i in rng.choice(len(cuts), size=1000, replace=False)]
    for k in (m, m + 1):
        g = codes.code_to_ame_graph(codes.grs_code(p, n, k))
        rep = is_ame(g)
        assert rep.is_ame and rep.witness is None and g.n == n
        assert list(rep.cut_ranks) == list(itertools.combinations(range(n), m))
        assert all(rep.cut_ranks[cut] == cut_edits(g, cut) == m for cut in cuts)
        if n <= 7:  # each 3|4 entropy at p = 7 is a 343 x 2401 spectrum: every seventh cut
            state = build_graph_state(g)
            assert all(abs(cut_entropy_edits(state, cut) - m) < 1e-6 for cut in cuts[::1 if n < 7 else 7])


@pytest.mark.parametrize("code", [codes.hamming433(), codes.grs_code(5, 4, 2)],
                         ids=["hamming433", "grs542"])
def test_codeword_superposition_stabilized(code):
    state = _codeword_state(code)
    assert abs(np.vdot(state.amps, state.amps) - 1) < 1e-9
    assert _stabilized_by_displacements(code)


def test_registry():
    assert codes.get_code("hamming433") == codes.hamming433()
    assert codes.get_code("grs:5,4,2") == codes.grs_code(5, 4, 2)
    with pytest.raises(ValueError):
        codes.get_code("nonsense")
    with pytest.raises(ValueError):
        codes.get_code("grs:5,4")


def test_format_roundtrip():
    c = codes.grs_code(5, 4, 2)
    text = format_code(c)
    assert text.splitlines()[0] == "5 4 2"
    assert codes.parse_code(text) == c


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 257]), st.integers(1, 4), st.integers(0, 3), st.data())
def test_format_code_round_trip(p, k, extra, data):
    n = k + extra
    # [I; R] with its rows shuffled: full column rank by construction
    rest = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                              min_size=extra, max_size=extra))
    gen = np.vstack([np.eye(k, dtype=np.int64), np.array(rest, dtype=np.int64).reshape(extra, k)])
    order = data.draw(st.permutations(range(n)))
    c = codes.LinearCode(p, gen[order])
    text = format_code(c)
    assert codes.parse_code(text) == c
    assert format_code(codes.parse_code(text)) == text
