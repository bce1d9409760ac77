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
from amegraph.stabilizer import is_valid


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
    c = codes.LinearCode(5, np.eye(5, dtype=int))
    with pytest.raises(codes.TooLargeError):
        codes.min_distance(c, max_words=100)


def test_mds_flags():
    ham = codes.hamming433()
    assert codes.is_mds(ham)
    codes.certified(ham)
    rep = codes.LinearCode(2, np.array([[1], [1], [1]]))
    assert codes.is_mds(rep)
    with pytest.raises(codes.NotAmeCodeError):
        codes.certified(rep)


@pytest.mark.parametrize("p,n,k", [(5, 4, 2), (7, 6, 3), (11, 4, 2), (13, 6, 3)])
def test_grs_is_mds(p, n, k):
    c = codes.grs_code(p, n, k)
    assert codes.min_distance(c) == n - k + 1


def test_grs_k1_repetition_like():
    c = codes.grs_code(5, 4, 1)
    assert codes.min_distance(c) == 4


def test_grs_errors():
    with pytest.raises(codes.LengthExceedsFieldError):
        codes.grs_code(3, 5, 2)  # p + 2 points: past the point at infinity
    with pytest.raises(codes.LengthExceedsFieldError):
        codes.grs_code(3, 4, 2, points=[0, 1, 2, 3])  # given points are finite
    with pytest.raises(codes.PointsNotDistinctError):
        codes.grs_code(5, 3, 2, points=[0, 1, 1])


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
    rep = codes.LinearCode(2, np.array([[1], [1], [1]]))
    with pytest.raises(codes.NotAmeCodeError):
        codes.ame_generator_matrix(rep)


@pytest.mark.parametrize(
    "code",
    [codes.hamming433(), codes.grs_code(5, 4, 2), codes.grs_code(7, 6, 3)],
    ids=["hamming433", "grs542", "grs763"],
)
def test_code_to_ame_graph(code):
    g = codes.code_to_ame_graph(code)
    assert g.p == code.p and g.n == code.n
    assert is_ame(g).is_ame


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
def test_cut_rank_gate_matches_min_distance(p, k, data):
    # [2k, k] codes: AME through the graph's cut ranks exactly when MDS
    n = 2 * k
    gen = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n * k, max_size=n * k))).reshape(n, k)
    assume(gfp.mat_rank(gen, p) == k)
    c = codes.LinearCode(p, gen)
    mds = codes.min_distance(c) == k + 1
    if mds:
        assert is_ame(codes.certified(c)[1]).is_ame
    else:
        with pytest.raises(codes.NotAmeCodeError):
            codes.certified(c)


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
    text = codes.format_code(c)
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
    text = codes.format_code(c)
    assert codes.parse_code(text) == c
    assert codes.format_code(codes.parse_code(text)) == text
