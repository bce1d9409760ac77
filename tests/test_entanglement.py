import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amegraph import codes, gfp, repro
from amegraph.entanglement import (
    AmeReport,
    UnequalGroupsError,
    cut_edits,
    cut_matrix,
    format_report,
    is_ame,
    is_ame_grouped,
    lc_orbit,
    min_edge_representative,
    party_cuts,
)
from amegraph.graph import (
    Graph,
    graph_from_edges,
    graph_from_word,
    op_mult,
    op_star,
    permute,
    truncate,
)
from amegraph.simulator import build_graph_state, cut_entropy_edits
from amegraph.witnesses import ame44_grouped, ame62, c5, quad_weighted


def c4():
    return graph_from_edges(2, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])


def random_graph(rng, p, n) -> Graph:
    adj = rng.integers(0, p, size=(n, n))
    adj = (adj + adj.T) % p
    np.fill_diagonal(adj, 0)
    return Graph(p, adj)


def test_cut_edits_examples():
    g = c4()
    assert cut_edits(g, (0, 3)) == 1
    assert cut_edits(g, (0, 1)) == 2
    assert cut_edits(Graph(2, np.zeros((4, 4), dtype=np.int64)), (0, 1)) == 0


@pytest.mark.parametrize("cut,msg", [
    ((-1,), r"vertex -1 is not in \[0, 4\)"),
    ((0, 8), r"vertex 8 is not in \[0, 4\)"),
    ((0, 0), "vertex 0 is given twice"),
], ids=["neg", "n", "repeat"])
def test_cut_edits_rejects_bad_cuts(cut, msg):
    with pytest.raises(ValueError, match=msg):
        cut_edits(quad_weighted(3), cut)


def test_is_ame_examples():
    assert is_ame(quad_weighted(3)).is_ame
    rep = is_ame(c4())
    assert not rep.is_ame and rep.witness == (0, 3)
    assert is_ame(c5(2)).is_ame


def test_is_ame_full_mode_covers_small_cuts():
    rep = is_ame(c5(3), full=True)
    assert rep.is_ame
    sizes = {len(cut) for cut in rep.cut_ranks}
    assert sizes == {1, 2}
    assert all(r == len(c) for c, r in rep.cut_ranks.items())


def test_cut_complement_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(120):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 8))
        g = random_graph(rng, p, n)
        size = int(rng.integers(1, n))
        cut = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        comp = tuple(v for v in range(n) if v not in cut)
        if not comp:
            continue
        r = cut_edits(g, cut)
        assert r == cut_edits(g, comp)
        assert 0 <= r <= min(len(cut), n - len(cut))


def test_rewrite_invariance():
    rng = np.random.default_rng(22)
    for _ in range(120):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(3, 7))
        g = random_graph(rng, p, n)
        v = int(rng.integers(n))
        g2 = op_star(g, v, int(rng.integers(1, p)))
        if p > 2:
            g2 = op_mult(g2, v, int(rng.integers(1, p)))
        for size in range(1, n // 2 + 1):
            for cut in itertools.combinations(range(n), size):
                assert cut_edits(g, cut) == cut_edits(g2, cut)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.sampled_from([2, 3, 5, 7]), st.data())
def test_local_rewrites_keep_every_cut_rank(n, p, data):
    # op_mult and op_star are local Cliffords on the graph state, so no
    # cut's rank changes; the rescale prune layer relies on this
    slots = n * (n - 1) // 2
    g = graph_from_word(p, n, data.draw(st.lists(st.integers(0, p - 1), min_size=slots, max_size=slots)))
    h = g
    for star, v, a in data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1),
                                                   st.integers(1, p - 1)), max_size=4)):
        h = op_star(h, v, a) if star else op_mult(h, v, a)
    for size in range(1, n // 2 + 1):
        for cut in itertools.combinations(range(n), size):
            assert cut_edits(h, cut) == cut_edits(g, cut)


def test_dense_oracle_agreement_small():
    rng = np.random.default_rng(23)
    for p in (2, 3):
        for n in (2, 3, 4):
            for _ in range(12):
                g = random_graph(rng, p, n)
                state = build_graph_state(g)
                for size in range(1, n // 2 + 1):
                    for cut in itertools.combinations(range(n), size):
                        assert abs(cut_entropy_edits(state, cut) - cut_edits(g, cut)) < 1e-6


@pytest.mark.parametrize("name", [
    "quad:3", "quad:5", "quad:7", "ame62", "grs:3,4,2", "grs:5,4,2", "grs:5,6,3", "grs:7,6,3",
    "grs:7,8,4", "grs:11,10,5", "grs:11,12,6", "grs:13,14,7", "grs:17,16,8", "grs:17,18,9",
])
def test_deleting_a_vertex_keeps_ame(name):
    # deleting a vertex Z-measures its qudit, and an AME state on an even
    # number n of parties leaves one on n - 1 (arXiv:1204.2289)
    if name.startswith("grs:"):
        g = codes.code_to_ame_graph(codes.get_code(name))
    else:
        g = ame62() if name == "ame62" else quad_weighted(int(name[5:]))
    assert g.n % 2 == 0 and is_ame(g).is_ame
    rng = np.random.default_rng(g.n * g.p)
    for v in range(g.n):
        h = truncate(g, [v])
        rep = is_ame(h)
        assert rep.is_ame and rep.witness is None
        cuts = list(rep.cut_ranks)
        sample = [cuts[i] for i in rng.choice(len(cuts), size=min(len(cuts), 40), replace=False)]
        assert all(rep.cut_ranks[cut] == cut_edits(h, cut) == len(cut) for cut in sample)
        if h.n <= 7:  # one 3|4 entropy at p = 7 is a 343 x 2401 spectrum: one cut there
            state = build_graph_state(h)
            for cut in sample[:1] if h.n == 7 else sample:
                assert abs(cut_entropy_edits(state, cut) - len(cut)) < 1e-6


def test_maximal_implies_smaller_cuts_maximal():
    for g in (quad_weighted(3), c5(2), ame62()):
        rep = is_ame(g, full=True)
        assert rep.is_ame
        for cut, rank in rep.cut_ranks.items():
            assert rank == len(cut)


def test_is_ame_grouped():
    g, gs = ame44_grouped()
    groups = [tuple(range(t * gs, (t + 1) * gs)) for t in range(4)]
    rep = is_ame_grouped(g, groups)
    assert rep.is_ame and len(rep.cut_ranks) == 3
    assert not is_ame(g).is_ame
    pair = graph_from_edges(2, 2, [(0, 1, 1)])
    assert is_ame_grouped(pair, [(0,), (1,)]).is_ame
    with pytest.raises(UnequalGroupsError):
        is_ame_grouped(g, [(0,), (1, 2), (3, 4, 5), (6, 7)])
    with pytest.raises(UnequalGroupsError):
        is_ame_grouped(g, [(0, 1), (2, 3), (4, 5), (6, 6)])


def test_lc_orbit_single_edge():
    g = graph_from_edges(2, 2, [(0, 1, 1)])
    res = lc_orbit(g, max_nodes=100)
    assert res.graphs == [g] and not res.truncated


def test_lc_orbit_contains_rewrite_sequence():
    g = quad_weighted(3)
    seq = op_star(op_star(op_star(g, 0, 1), 2, 1), 1, 1)
    res = lc_orbit(g, max_nodes=4000)
    assert not res.truncated
    assert seq in set(res.graphs)


def test_lc_orbit_members_share_cut_ranks():
    g = quad_weighted(3)
    res = lc_orbit(g, max_nodes=4000)
    cuts = list(itertools.combinations(range(4), 2))
    want = [cut_edits(g, c) for c in cuts]
    for member in res.graphs:
        assert [cut_edits(member, c) for c in cuts] == want


def test_lc_orbit_truncation_flag():
    res = lc_orbit(quad_weighted(3), max_nodes=5)
    assert res.truncated and len(res.graphs) == 5


def test_min_edge_representative():
    g = quad_weighted(3)
    rep = min_edge_representative(g, max_nodes=4000)
    full = lc_orbit(g, max_nodes=4000)
    assert rep.edge_count() == min(m.edge_count() for m in full.graphs)


def test_format_report():
    rep = is_ame(c4())
    text = format_report(rep)
    lines = text.splitlines()
    assert lines[0] == "AME no"
    assert lines[1] == "WITNESS 1,4"
    assert "CUT {1,4} RANK 1" in lines
    assert format_report(is_ame(quad_weighted(3))).splitlines()[0] == "AME yes"


def _scalar_report(g, cut_lists, stop) -> AmeReport:
    """Reference report: one scalar cut_edits per cut, in enumeration order."""
    rep = AmeReport(True, None)
    for cuts in cut_lists:
        for cut in cuts:
            r = cut_edits(g, cut)
            rep.cut_ranks[cut] = r
            if r < len(cut):
                rep.is_ame = False
                if rep.witness is None:
                    rep.witness = cut
                if stop:
                    return rep
    return rep


def _same_report(got, want):
    assert got == want and list(got.cut_ranks) == list(want.cut_ranks)


def _disguise(draw, g):
    """perfbench's rank-preserving scramble (one op_star, op_mult at every
    vertex, a relabeling), then maybe one edge reweighted, which may break
    a cut. Returns the graph and the relabeling (new i is old perm[i])."""
    g = op_star(g, draw(st.integers(0, g.n - 1)), draw(st.integers(1, g.p - 1)))
    for v in range(g.n):
        g = op_mult(g, v, draw(st.integers(1, g.p - 1)))
    perm = draw(st.permutations(range(g.n)))
    g = permute(g, perm)
    if draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        adj = g.adj.copy()
        adj[u, v] = adj[v, u] = draw(st.integers(0, g.p - 1))
        g = Graph(g.p, adj)
    return g, perm


@st.composite
def _cert_graphs(draw):
    """Disguised AME witnesses, random graphs with p in {2, 3, 5, 7, 191}
    and n <= 8, and sparse qubit graphs with n <= 10 (which mostly fail
    early)."""
    kind = draw(st.sampled_from(["witness", "random", "sparse"]))
    if kind == "witness":
        g = draw(st.sampled_from([quad_weighted(p) for p in (3, 5, 7, 11)] + [c5(p) for p in (2, 3, 5)]
                                 + [ame62()]))
        return _disguise(draw, g)[0]
    n = draw(st.integers(2, 8 if kind == "random" else 10))
    p = draw(st.sampled_from([2, 3, 5, 7, 191])) if kind == "random" else 2
    weight = st.integers(0, p - 1) if kind == "random" else st.sampled_from([0, 0, 0, 1])
    slots = n * (n - 1) // 2
    return graph_from_word(p, n, draw(st.lists(weight, min_size=slots, max_size=slots)))


@settings(max_examples=80, deadline=None)
@given(_cert_graphs())
def test_is_ame_matches_scalar_reference(g):
    m = g.n // 2
    _same_report(is_ame(g), _scalar_report(g, [list(itertools.combinations(range(g.n), m))], True))
    every = [list(itertools.combinations(range(g.n), s)) for s in range(1, m + 1)]
    _same_report(is_ame(g, full=True), _scalar_report(g, every, False))


@settings(max_examples=60, deadline=None)
@given(_cert_graphs(), st.data())
def test_is_ame_grouped_matches_scalar_reference(g, data):
    size = data.draw(st.sampled_from([s for s in range(1, g.n // 2 + 1) if g.n % s == 0]))
    order = data.draw(st.permutations(range(g.n)))
    groups = [tuple(order[t:t + size]) for t in range(0, g.n, size)]
    gcount = len(groups)
    cuts = [
        tuple(sorted(v for t in chosen for v in groups[t]))
        for chosen in itertools.combinations(range(gcount), gcount // 2)
        if gcount % 2 or 0 in chosen
    ]
    _same_report(is_ame_grouped(g, groups), _scalar_report(g, [cuts], False))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_is_ame_grouped_on_disguised_ame44(data):
    grouped, size = ame44_grouped()
    g, perm = _disguise(data.draw, grouped)
    groups = [tuple(i for i in range(g.n) if perm[i] // size == t) for t in range(g.n // size)]
    _same_report(is_ame_grouped(g, groups), _scalar_report(g, [party_cuts(groups)], False))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(1, 3), st.data())
def test_party_cuts_matches_brute_force(gcount, gsize, data):
    order = data.draw(st.permutations(range(gcount * gsize)))
    groups = [tuple(order[t * gsize:(t + 1) * gsize]) for t in range(gcount)]
    assert party_cuts(groups) == party_cuts(groups, gcount // 2)
    for size in range(1, gcount // 2 + 1):
        # every subset of the groups as a bitmask; complements only once
        chosen = sorted(
            tuple(t for t in range(gcount) if mask >> t & 1)
            for mask in range(1 << gcount)
            if bin(mask).count("1") == size and (2 * size != gcount or mask & 1)
        )
        want = [tuple(sorted(v for t in c for v in groups[t])) for c in chosen]
        assert party_cuts(groups, size) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.sampled_from([2, 3, 5]), st.data())
def test_cut_rank_equals_dense_entropy(n, p, data):
    # the rank-entropy identity for graph states: S(A) = rank_p Gamma_{A, rest}
    slots = n * (n - 1) // 2
    g = graph_from_word(p, n, data.draw(st.lists(st.integers(0, p - 1), min_size=slots, max_size=slots)))
    state = build_graph_state(g)
    for size in range(1, n):
        for cut in itertools.combinations(range(n), size):
            assert abs(cut_entropy_edits(state, cut) - cut_edits(g, cut)) < 1e-9


def _spy(monkeypatch, *names):
    """Wrap gfp functions: the returned dict lists each one's stack sizes
    (or other first arguments), one entry per call."""
    seen = {name: [] for name in names}

    def wrap(name, fn):
        def call(*args):
            seen[name].append(len(args[0]) if name == "rank_stack" else args)
            return fn(*args)
        return call

    for name in names:
        monkeypatch.setattr(gfp, name, wrap(name, getattr(gfp, name)))
    return seen


def test_check1_ranks_by_table_lookup(monkeypatch):
    # every p=3 n=4 graph: 729 x 3 2x2 blocks repay the 81-byte table
    seen = _spy(monkeypatch, "rank_table", "_peel", "rank_batch")
    words = gfp.digits(np.arange(3**6), 3, 6)
    assert repro._entropy_rank_delta(3, 4, words) < 1e-6
    assert seen["rank_table"] == [(3, 2, 2)] and not seen["_peel"] and not seen["rank_batch"]


def test_cold_is_ame_builds_no_table(monkeypatch):
    # a p=11 n=6 AME graph, disguised: its 10 3x3 blocks, ranked in fast
    # mode's batches of 1 and 9, would need the 1.77 MB _peel(11, 3), so
    # they are eliminated
    g = codes.code_to_ame_graph(codes.grs_code(11, 6, 3))
    g = permute(op_mult(op_star(g, 2, 5), 4, 7), [3, 0, 5, 1, 4, 2])
    seen = _spy(monkeypatch, "rank_table", "_peel", "rank_batch")
    assert is_ame(g).is_ame
    assert not seen["rank_table"] and not seen["_peel"]
    assert [len(args[0]) for args in seen["rank_batch"]] == [1, 9]


@pytest.mark.parametrize("full", [False, True])
def test_is_ame_ranks_each_complementary_pair_once(monkeypatch, full):
    seen = _spy(monkeypatch, "rank_stack")
    rep = is_ame(ame62(), full=full)
    assert rep.is_ame and len(rep.cut_ranks) == (6 + 15 + 20 if full else 20)
    assert sum(seen["rank_stack"]) == (6 + 15 + 10 if full else 10)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 257]), st.integers(1, 9), st.data())
def test_cut_matrix_is_the_ix_block(p, n, data):
    g = graph_from_word(p, n, data.draw(st.lists(st.integers(0, p - 1), min_size=n * (n - 1) // 2,
                                                 max_size=n * (n - 1) // 2)))
    cut = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    rest = [u for u in range(n) if u not in cut]
    want = g.adj[np.ix_(sorted(cut), rest)]
    got = cut_matrix(g, cut)
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 13]), st.integers(2, 10), st.floats(0, 1), st.integers(0, 2**32 - 1),
       st.sampled_from([2, 3, gfp._ELIM_CALL]))
def test_fast_report_is_the_full_reports_prefix_to_the_witness(p, n, density, seed, growth):
    # the edge density moves the first failing cut, and fast mode's batches
    # grow `growth`-fold (1, 64, 4096 as shipped), so that batch ends fall
    # before, at and after it
    rng = np.random.default_rng(seed)
    slots = n * (n - 1) // 2
    g = graph_from_word(p, n, rng.integers(1, p, size=slots) * (rng.random(slots) < density))
    with mock.patch.object(gfp, "_ELIM_CALL", growth):
        fast = is_ame(g)
    full = is_ame(g, full=True)
    m = n // 2
    ranks = [(cut, r) for cut, r in full.cut_ranks.items() if len(cut) == m]
    assert [cut for cut, _ in ranks] == list(itertools.combinations(range(n), m))
    fails = [i for i, (_, r) in enumerate(ranks) if r < m]
    assert list(fast.cut_ranks.items()) == (ranks[:fails[0] + 1] if fails else ranks)
    assert fast.witness == (ranks[fails[0]][0] if fails else None)
    assert fast.is_ame == full.is_ame == (not fails)
