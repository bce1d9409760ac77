import concurrent.futures
import multiprocessing
import threading
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amegraph import gfp, search
from amegraph import graph as gr
from amegraph.entanglement import cut_edits, is_ame, is_ame_grouped, party_cuts
from amegraph.graph import (
    canonical_form,
    canonical_form_grouped,
    edge_word,
    format_graph_line,
    graph_from_edges,
    graph_from_word,
    graphs_from_words,
)
from amegraph.search import (
    BudgetExceededError,
    SearchSpec,
    _prune_mask,
    _reference_search,
    enumerate_graphs,
    grouped_search,
    random_search,
    run,
)


def _scan_blocks(spec):
    """search._scan_blocks on the spec's _block_scan, as enumerate_graphs calls it."""
    return search._scan_blocks(spec, search._block_scan(spec))


def test_exhaustive_counts_without_pruning():
    for n, p in ((3, 2), (4, 2), (3, 3)):
        res = enumerate_graphs(SearchSpec(n=n, p=p))
        assert res.examined == p ** (n * (n - 1) // 2)
        assert res.pruned == 0
        assert res.exhaustive


def test_no_ame_4_qubits():
    res = enumerate_graphs(SearchSpec(n=4, p=2))
    assert res.examined == 64 and res.witnesses == []


def test_quad_weighted_found_at_p3():
    res = enumerate_graphs(SearchSpec(n=4, p=3))
    quad = graph_from_edges(3, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 1)])
    assert canonical_form(quad) in res.witnesses
    for w in res.witnesses:
        assert is_ame(w).is_ame


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_graphs(SearchSpec(n=7, p=3))
    # scan ids are int64: 5^28 graphs are refused whatever the budget
    with pytest.raises(BudgetExceededError, match="int64"):
        enumerate_graphs(SearchSpec(n=8, p=5, budget=1 << 80))


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (5, 2), (2, 257)])
def test_engine_matches_reference(n, p):
    fast = enumerate_graphs(SearchSpec(n=n, p=p))
    ref = _reference_search(SearchSpec(n=n, p=p))
    assert fast.witnesses == ref.witnesses
    assert fast.examined == ref.examined


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.sampled_from([(2, 1), (3, 1), (4, 1), (4, 2)]),
       st.booleans(), st.booleans(), st.booleans())
def test_engine_matches_reference_on_random_specs(p, shape, weights_one, rescale, canonical):
    n, group_size = shape
    spec = SearchSpec(n=n, p=p, group_size=group_size, weights_one=weights_one,
                      prune_rescale=rescale, prune_canonical=canonical)
    assume(spec.base**spec.edge_slots <= 729)  # the scalar reference stays fast
    fast, ref = enumerate_graphs(spec), _reference_search(spec)
    assert fast.witnesses == ref.witnesses
    assert (fast.examined, fast.pruned) == (ref.examined, ref.pruned)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.sampled_from([(2, 1), (3, 1), (4, 1), (4, 2)]),
       st.booleans(), st.booleans(), st.booleans(),
       st.sampled_from([1, 3, 9, 27]))
def test_many_blocks_match_reference(p, shape, weights_one, rescale, canonical, low_ids):
    # blocks of at most low_ids ids, so every spec spans many high parts
    n, group_size = shape
    spec = SearchSpec(n=n, p=p, group_size=group_size, weights_one=weights_one,
                      prune_rescale=rescale, prune_canonical=canonical)
    assume(spec.base**spec.edge_slots <= 729)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_LOW_IDS", low_ids)
        fast = enumerate_graphs(spec)
        raw = _scan_blocks(spec)
    ref = _reference_search(spec)
    assert fast.witnesses == ref.witnesses
    assert (fast.examined, fast.pruned) == (ref.examined, ref.pruned)
    # the raw witness ids, in order, are those of the digit path: every id
    # expanded, pruned by _prune_mask and ranked by _predicate_mask
    ids = np.arange(spec.base**spec.edge_slots)
    weights = search._weights_from_ids(ids, spec)
    keep = ~_prune_mask(weights, spec)
    passed = search._predicate_mask(weights[keep], spec, {})
    assert raw[0].tolist() == ids[keep][passed].tolist()


@pytest.mark.parametrize("flags", [
    dict(n=5, p=2, prune_canonical=True),
    dict(n=4, p=3, weights_one=True, prune_rescale=True, prune_canonical=True),
    dict(n=4, p=3, group_size=2, prune_rescale=True),
    dict(n=4, p=5, prune_rescale=True),
    dict(n=5, p=3, prune_canonical=True),
    dict(n=4, p=3, group_size=2, prune_canonical=True),
])
def test_many_blocks_match_reference_on_pruned_specs(monkeypatch, flags):
    spec = SearchSpec(**flags)
    monkeypatch.setattr(search, "_LOW_IDS", spec.base)  # one edge slot per low part
    scans, block_scan = [], search._block_scan
    monkeypatch.setattr(search, "_block_scan", lambda spec: scans.append(block_scan(spec)) or scans[-1])
    fast, ref = enumerate_graphs(spec), _reference_search(spec)
    assert [scan.size for scan in scans] == [spec.base]
    assert fast.witnesses == ref.witnesses
    assert (fast.examined, fast.pruned) == (ref.examined, ref.pruned) and fast.pruned > 0


def _table_smaller(spec, ids):
    """The scan's verdict on each id: does some adjacent swap make its word
    smaller, read off the swap tables at its low id and its block's offsets."""
    scan = search._BlockScan(spec)
    his, los = np.divmod(np.asarray(ids, dtype=np.int64), scan.size)
    chunk_ids = gfp.digits(his * scan.size, scan.size, -(-spec.edge_slots // scan.low)).T
    highs = search._part_index(scan.swap_chunks, chunk_ids, len(scan.swaps))
    return (scan.swaps[:, los] > -highs).any(axis=0)


def _swap_smaller_by_ints(word, n, base):
    """Python-int reference: the word and each adjacent swap of vertices
    k - 1 and k, read as big-endian base-`base` numbers over the edge slots
    in combinations order; is some swapped number smaller?"""
    pairs = list(combinations(range(n), 2))
    weight = dict(zip(pairs, word))

    def number(perm):
        return sum(weight[tuple(sorted((perm[i], perm[j])))] * base ** (len(pairs) - 1 - s)
                   for s, (i, j) in enumerate(pairs))

    own = number(list(range(n)))
    swaps = [list(range(n)) for _ in range(n - 1)]
    for k, perm in enumerate(swaps, 1):
        perm[k - 1], perm[k] = k, k - 1
    return any(number(perm) < own for perm in swaps)


def test_swap_tables_exact_past_2_53():
    # n=9 p=3: base^E = 3^36, about 2^57, which float64 keys cannot resolve.
    # The words include the largest id, words fixed by every swap, and words
    # whose swap by vertices 7 and 8 differs from them only at edges
    # (6, 7) and (6, 8), the lowest digits but one or two, either way round.
    spec = SearchSpec(n=9, p=3, prune_canonical=True, budget=3**36)
    slots, rng = spec.edge_slots, np.random.default_rng(9)
    slot = {pair: s for s, pair in enumerate(combinations(range(9), 2))}
    words = [[2] * slots, [0] * slots, [1] * slots]
    for _ in range(100):
        words.append(list(rng.integers(0, 3, size=slots)))
    for _ in range(100):
        w = rng.integers(0, 3, size=slots)
        for i in range(6):
            w[slot[i, 8]] = w[slot[i, 7]]
        a, b = rng.choice(3, size=2, replace=False)
        w[slot[6, 7]], w[slot[6, 8]] = a, b
        words.append(list(w))
        w[slot[6, 7]], w[slot[6, 8]] = b, a
        words.append(list(w))
    ids = [sum(int(d) * 3**s for s, d in enumerate(w)) for w in words]
    assert ids[0] == 3**slots - 1 and 3**slots > 1 << 53
    truth = [_swap_smaller_by_ints(w, 9, 3) for w in words]
    assert _table_smaller(spec, ids).tolist() == truth
    assert any(truth) and not all(truth)
    # float64 keys lose those low digits: the exact tables are needed here
    floats = gr._swap_smaller(np.array(words, dtype=np.uint8), 3, 9)
    assert floats.tolist() != truth


@pytest.mark.parametrize("flags, survivors", [(dict(n=6, p=2), 325), (dict(n=5, p=3), 1554)])
def test_scan_expands_digits_only_for_swap_survivors(monkeypatch, flags, survivors):
    # with prune_canonical the scan expands into digits exactly the words
    # that no adjacent swap makes smaller, and each once
    spec = SearchSpec(prune_canonical=True, **flags)
    words = search._weights_from_ids(np.arange(spec.base**spec.edge_slots), spec)
    kept = int((~gr._swap_smaller(words, spec.base, spec.n)).sum())
    rows = []
    expand = search._weights_from_ids

    def counted(ids, spec, scan=None):
        rows.append(len(ids))
        return expand(ids, spec, scan)

    monkeypatch.setattr(search, "_weights_from_ids", counted)
    _scan_blocks(spec)
    assert sum(rows) == kept == survivors


@pytest.mark.parametrize("flags, low_ids", [
    (dict(n=3, p=2), 4), (dict(n=4, p=3), 27), (dict(n=4, p=3), search._LOW_IDS),
    (dict(n=4, p=5, group_size=2), 125), (dict(n=5, p=2, prune_rescale=True), 64),
    (dict(n=4, p=257, weights_one=True), 8),
])
def test_digit_table_expands_every_id(monkeypatch, flags, low_ids):
    # an id hi * size + lo is the scan's low_digits at lo, then hi's digits
    monkeypatch.setattr(search, "_LOW_IDS", low_ids)
    spec = SearchSpec(**flags)
    scan = search._BlockScan(spec)
    ids = np.arange(spec.base**spec.edge_slots)
    want = gfp.digits(ids, spec.base, spec.edge_slots, spec.word_dtype)
    got = search._weights_from_ids(ids, spec, scan)
    assert got.dtype == want.dtype and (got == want).all()
    assert any(a is scan.low_digits for a in scan.arrays) and not scan.low_digits.flags.writeable
    assert scan.nbytes == sum(a.nbytes for a in scan.arrays) >= scan.low_digits.nbytes > 0


@pytest.mark.parametrize("flags", [dict(n=7, p=2), dict(n=8, p=2), dict(n=4, p=5, group_size=2),
                                   dict(n=5, p=3), dict(n=5, p=2147483659, weights_one=True)])
def test_digit_table_expands_random_ids(flags):
    spec = SearchSpec(**flags)
    scan = search._BlockScan(spec)
    ids = np.random.default_rng(spec.n).integers(0, spec.base**spec.edge_slots, size=3000)
    want = gfp.digits(ids, spec.base, spec.edge_slots, spec.word_dtype)
    assert (search._weights_from_ids(ids, spec, scan) == want).all()
    assert scan.low_digits.shape == (scan.size, scan.low) and scan.size <= search._LOW_IDS


# cap 1: no cut has a table and gfp.rank_batch ranks each; cap 256 at n=6
# p=2: each 3x3 cut is peeled once down to a 2x2 table (the cap alone
# decides: gfp._REPAY is lifted)
@pytest.mark.parametrize("flags", [(dict(n=5, p=3), 1), (dict(n=4, p=5, prune_rescale=True), 1),
                                   (dict(n=4, p=3, group_size=2, prune_rescale=True), 1),
                                   (dict(n=6, p=2), 256)])
def test_rank_fallback_matches_tables(monkeypatch, flags):
    fields, cap = flags
    spec = SearchSpec(**fields)
    monkeypatch.setattr(search, "_LOW_IDS", 243)
    ids, examined, pruned = _scan_blocks(spec)
    assert len(ids) > 0
    with_tables = enumerate_graphs(spec)
    monkeypatch.setattr(gfp, "_TABLE_CAP", cap)
    monkeypatch.setattr(gfp, "_REPAY", 1 << 62)
    assert search._search_plan(spec)[1] is None
    fallback_ids, fallback_examined, fallback_pruned = _scan_blocks(spec)
    assert fallback_ids.tolist() == ids.tolist()
    assert (fallback_examined, fallback_pruned) == (examined, pruned)
    assert enumerate_graphs(spec).witnesses == with_tables.witnesses


@pytest.mark.parametrize("flags", [dict(n=6, p=2), dict(n=5, p=3, prune_rescale=True),
                                   dict(n=4, p=5, prune_rescale=True)])
def test_first_cut_reuse_matches_fresh_blocks(monkeypatch, flags):
    # blocks of at most 27 ids; reusing first-cut survivors across blocks
    # with the same row key and offset changes no id or count
    spec = SearchSpec(**flags)
    monkeypatch.setattr(search, "_LOW_IDS", 27)
    reused = _scan_blocks(spec)
    for cap in (0, 1):
        monkeypatch.setattr(search, "_REUSE_CAP", cap)
        fresh = _scan_blocks(spec)
        assert fresh[0].tolist() == reused[0].tolist() and fresh[1:] == reused[1:]


@pytest.mark.parametrize("flags", [dict(n=5, p=3), dict(n=4, p=5), dict(n=4, p=3, group_size=2),
                                   dict(n=4, p=5, group_size=2, prune_rescale=True),
                                   dict(n=4, p=5, prune_rescale=True), dict(n=5, p=5, weights_one=True)])
def test_class_candidates_keep_every_class(flags):
    # the classes found from the raw witnesses' minimal words (or, under
    # rescale, their canonical ids) are the scalar dedupe of all of them
    spec = SearchSpec(**flags)
    ids = _scan_blocks(spec)[0]
    raw = graphs_from_words(spec.p, spec.n, search._weights_from_ids(ids, spec))
    classes = search._canonical_classes(ids, spec, search._block_scan(spec))
    assert classes == search._dedupe_canonical(raw, spec.group_size)
    assert 0 < len(classes) < len(ids)


def _chunk_tables_by_part(coef, low, base):
    """The chunk tables of one part, one gfp.digit_sums call per chunk,
    every chunk included."""
    return [gfp.digit_sums(np.multiply.outer(coef[s : s + low], np.arange(base)), np.int64)
            for s in range(0, coef.size, low)]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7), st.integers(1, 4), st.integers(1, 10), st.integers(1, 5), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_stacked_chunk_tables_match_digit_sums(base, low, slots, parts, signed, seed):
    # cut parts (nonnegative, default dtype) and int64 swap forms (either
    # sign), with zero rows, zero chunks and chunks past the last slot
    rng = np.random.default_rng(seed)
    coefs = rng.integers(-(1 << 40) if signed else 0, 1 << (40 if signed else 12), size=(parts, slots))
    coefs[rng.random(coefs.shape) < 0.4] = 0
    coefs[rng.random(parts) < 0.3] = 0
    built = search._chunk_tables(coefs, low, base, np.int64 if signed else None)
    got = {c: dict(zip(rows.tolist(), tables)) for c, rows, tables in built}
    for k, coef in enumerate(coefs):
        for c, want in enumerate(_chunk_tables_by_part(coef, low, base)):
            # a part has a table exactly in the chunks that hold its slots
            has = bool(coef[c * low : c * low + low].any())
            assert (k in got.get(c, {})) == has
            if has:
                assert got[c][k].tolist() == want.tolist()
            else:
                assert not want.any()
    if not signed and built:  # the smallest dtype that holds the largest part's index
        largest = int(coefs.sum(axis=1).max()) * (base - 1)
        assert {t.dtype for _, _, t in built} == {np.min_scalar_type(largest)}


@pytest.mark.parametrize("flags", [dict(n=6, p=2, prune_canonical=True),
                                   dict(n=5, p=3, prune_rescale=True),
                                   dict(n=4, p=5, group_size=2), dict(n=4, p=5)])
def test_second_scan_builds_nothing(monkeypatch, flags):
    monkeypatch.setattr(search, "_SCANS", {})
    first = enumerate_graphs(SearchSpec(**flags))

    def refuse(spec):
        raise AssertionError("built a second _BlockScan")

    monkeypatch.setattr(search, "_BlockScan", refuse)
    again = enumerate_graphs(SearchSpec(**flags))
    assert [g.adj.tobytes() for g in again.witnesses] == [g.adj.tobytes() for g in first.witnesses]
    assert (again.examined, again.pruned) == (first.examined, first.pruned)


def test_scan_cache_keys_every_value_the_build_reads(monkeypatch):
    monkeypatch.setattr(search, "_SCANS", {})
    fields = dict(n=4, p=3, prune_rescale=True)
    scan = search._block_scan(SearchSpec(**fields))
    for other in (dict(seed=5), dict(budget=1 << 20), dict(samples=7), dict(workers=3)):
        assert search._block_scan(SearchSpec(**fields, **other)) is scan
    differ = [dict(n=5), dict(p=5), dict(group_size=2), dict(weights_one=True), dict(prune_rescale=False),
              dict(prune_canonical=True)]
    scans = [search._block_scan(SearchSpec(**{**fields, **other})) for other in differ]
    assert len({id(s) for s in [scan, *scans]}) == len(search._SCANS) == 1 + len(differ)
    # a patched block size or table cap is a fresh build, not a stale one
    monkeypatch.setattr(search, "_LOW_IDS", 9)
    small = search._block_scan(SearchSpec(**fields))
    assert small is not scan and small.size == 9
    monkeypatch.setattr(gfp, "_TABLE_CAP", 1 << 16)
    monkeypatch.setattr(gfp, "_REPAY", 0)
    fallback = search._block_scan(SearchSpec(**fields))
    assert fallback.table is None and fallback is not small


def test_scan_cache_shares_one_scan_for_rescale_at_p2(monkeypatch):
    # the rescale layer builds nothing at p = 2, so its flag keys no second scan there
    monkeypatch.setattr(search, "_SCANS", {})
    scan = search._block_scan(SearchSpec(n=5, p=2))
    assert search._block_scan(SearchSpec(n=5, p=2, prune_rescale=True)) is scan
    assert len(search._SCANS) == 1


def test_cached_scans_are_read_only(monkeypatch):
    monkeypatch.setattr(search, "_SCANS", {})
    scan = search._block_scan(SearchSpec(n=5, p=3, prune_rescale=True, prune_canonical=True,
                                         budget=1 << 20))
    owned = [scan.low_digits, scan.low_index, scan.row_zero, scan.static, scan.swaps, *scan.row_high,
             *(t for _, _, t in scan.cut_chunks + scan.swap_chunks)]
    assert len(owned) == len(scan.arrays) and all(any(a is b for b in scan.arrays) for a in owned)
    assert scan.nbytes == sum(a.nbytes for a in owned)
    assert not any(a.flags.writeable for a in owned)
    with pytest.raises(ValueError):
        scan.low_index[0, 0] = 1


def test_scan_cache_stays_within_the_byte_bound(monkeypatch):
    # 17 KB holds scans a and b (6.6 and 10.2 KB) but not c (5.1 KB) as
    # well; the n=5 p=3 scan (184 KB) is never kept and evicts nothing.
    # Each holds its 4.4 KB digit table
    cap = 17_000
    monkeypatch.setattr(search, "_SCANS", {})
    monkeypatch.setattr(gfp, "_TABLE_CAP", cap)
    specs = [SearchSpec(n=4, p=3), SearchSpec(n=4, p=3, prune_rescale=True),
             SearchSpec(n=4, p=3, group_size=2)]
    big = SearchSpec(n=5, p=3)
    na, nb, nc = (search._BlockScan(s).nbytes for s in specs)
    assert na + nb <= cap < na + nb + nc and search._BlockScan(big).nbytes > cap

    def cached():
        assert sum(s.nbytes for s in search._SCANS.values()) <= cap
        return list(search._SCANS.values())

    a, b = (search._block_scan(s) for s in specs[:2])
    assert cached() == [a, b]
    assert search._block_scan(specs[0]) is a and cached() == [b, a]  # a is now the most recent
    assert search._block_scan(big) not in cached() and cached() == [b, a]
    enumerate_graphs(big)
    assert cached() == [b, a]
    c = search._block_scan(specs[2])
    assert cached() == [a, c]  # the least recently used made room


@pytest.mark.parametrize("n", [2, 3])
def test_classes_in_adjacency_byte_order_past_255(n):
    # weights past 255 take two bytes, so at p = 257 weight 256 (bytes 00
    # 01) sorts before 1 (bytes 01 00); the classes, sorted as words, come
    # out in the order of sorting their Graphs by adj.tobytes()
    spec = SearchSpec(n=n, p=257)
    rng = np.random.default_rng(n)
    words = rng.choice([0, 1, 2, 255, 256, 17, 128], size=(300, spec.edge_slots)).astype(spec.word_dtype)
    words = np.unique(gr.canonical_words(words, spec.base, n), axis=0)
    words = words[words.any(axis=1)]
    ids = np.sort(words.astype(np.int64) @ spec.base ** np.arange(spec.edge_slots))
    classes = search._canonical_classes(ids, spec, search._block_scan(spec))
    graphs = graphs_from_words(spec.p, n, search._weights_from_ids(ids, spec))
    want = sorted(graphs, key=lambda g: g.adj.tobytes())
    assert classes == want and len(classes) == len(ids)
    if n == 2:  # ids 1, 2, 17, 128, 255 and 256
        assert [int(g.adj[0, 1]) for g in classes] == [256, 1, 2, 17, 128, 255]


def test_exhaustive_refuses_n_over_8_before_scanning(monkeypatch):
    def scan(*args):
        raise AssertionError("scanned before refusing")

    monkeypatch.setattr(search, "_scan_blocks", scan)
    with pytest.raises(ValueError, match="at most 40320 relabelings"):
        enumerate_graphs(SearchSpec(n=9, p=2, budget=2**36))
    with pytest.raises(BudgetExceededError):  # the budget is still checked first
        enumerate_graphs(SearchSpec(n=9, p=2))


def test_scan_ranks_rows_past_int64(monkeypatch):
    # at p > 2^31 no row of two or more weights packs into int64, so the
    # scan ranks every cut by gfp.rank_stack on expanded digits; the last
    # two specs spread their words over 4 blocks of 2 ids and 64 blocks of 16
    for n, classes, low_ids in ((3, 2, search._LOW_IDS), (4, 0, search._LOW_IDS), (5, 3, search._LOW_IDS),
                                (3, 2, 2), (5, 3, 16)):
        monkeypatch.setattr(search, "_LOW_IDS", low_ids)
        spec = SearchSpec(n=n, p=2147483659, weights_one=True, prune_rescale=low_ids == 2)
        assert not search._search_plan(spec)[2]  # no part's index fits int64
        fast, ref = enumerate_graphs(spec), _reference_search(spec)
        assert len(fast.witnesses) == classes and fast.witnesses == ref.witnesses
        assert fast.examined == ref.examined


@pytest.mark.parametrize("low_ids", [search._LOW_IDS, 4])
@pytest.mark.parametrize("group_size", [1, 2])
def test_rows_path_with_uint16_row_index_matches_reference(monkeypatch, low_ids, group_size):
    # at p = 257 a two-slot row packs to at most 1 + 257: a uint16 index,
    # and no table (257^4 entries) is afforded. With two-slot chunks A
    # alone would fit uint8, so only the index's own dtype keeps A + B exact
    monkeypatch.setattr(search, "_LOW_IDS", low_ids)
    monkeypatch.setattr(search, "_SCANS", {})
    spec = SearchSpec(n=4, p=257, weights_one=True, group_size=group_size)
    scan = search._block_scan(spec)
    assert scan.table is None and scan.fits and scan.low_index.dtype == np.uint16
    got, want = enumerate_graphs(spec), _reference_search(spec)
    assert [g.adj.tobytes() for g in got.witnesses] == [g.adj.tobytes() for g in want.witnesses]
    assert (got.examined, got.pruned) == (want.examined, want.pruned)


def test_n7_qubit_scan_is_cached_with_narrow_tables(monkeypatch):
    # uint16 chunk-0 tables (1,146,880 bytes) bring the scan within the cap
    monkeypatch.setattr(search, "_SCANS", {})
    scan = search._block_scan(SearchSpec(n=7, p=2))
    assert scan.low_index.dtype == np.uint16 and scan.low_index.nbytes == 1_146_880
    assert scan.nbytes <= gfp._TABLE_CAP and list(search._SCANS.values()) == [scan]


def test_edge_words_wider_than_a_byte():
    # weight 256 must not wrap to 0 in the edge word
    res = enumerate_graphs(SearchSpec(n=2, p=257))
    assert sorted(int(g.adj[0, 1]) for g in res.witnesses) == list(range(1, 257))
    res = random_search(SearchSpec(n=3, p=263, mode="random", seed=1))
    assert len(res.witnesses) == 1 and is_ame(res.witnesses[0]).is_ame


def test_worker_count_does_not_change_results(monkeypatch):
    # the scan is serial: no worker count starts a thread or a pool
    def refuse(*args, **kwargs):
        raise AssertionError("the scan started a thread or a pool")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(multiprocessing.Process, "start", refuse)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(search, "_LOW_IDS", 16)  # n=5, p=2: 2^10 ids in 64 blocks of 2^4
    single, *multi = [enumerate_graphs(SearchSpec(n=5, p=2, prune_canonical=True, workers=w))
                      for w in (1, 3, 5000)]
    assert single.witnesses and single.pruned > 0
    for res in multi:
        assert (res.witnesses, res.examined, res.pruned) == (single.witnesses, single.examined, single.pruned)


def _scale_perm_class(g) -> bytes:
    """Canonical key of a graph's orbit under rescaling plus relabeling."""
    import itertools

    from amegraph.graph import op_mult, permute

    best = None
    for scales in itertools.product(range(1, g.p), repeat=g.n):
        h = g
        for v, b in enumerate(scales):
            h = op_mult(h, v, b)
        for perm in itertools.permutations(range(g.n)):
            key = permute(h, list(perm)).adj.astype(np.uint8).tobytes()
            if best is None or key < best:
                best = key
    return best


def test_pruning_layers_preserve_witness_classes():
    base = enumerate_graphs(SearchSpec(n=4, p=3))
    pruned = enumerate_graphs(SearchSpec(n=4, p=3, prune_canonical=True))
    assert pruned.witnesses == base.witnesses
    assert pruned.examined + pruned.pruned == 729
    assert pruned.pruned > 0
    # the rescale layer keeps one representative per scaling orbit, so the
    # witness sets match up to rescaling-plus-relabeling equivalence
    rescaled = enumerate_graphs(SearchSpec(n=4, p=3, prune_rescale=True))
    assert {_scale_perm_class(w) for w in rescaled.witnesses} == {
        _scale_perm_class(w) for w in base.witnesses
    }

    base52 = enumerate_graphs(SearchSpec(n=5, p=2))
    pruned52 = enumerate_graphs(SearchSpec(n=5, p=2, prune_canonical=True))
    assert pruned52.witnesses == base52.witnesses

    base53 = enumerate_graphs(SearchSpec(n=5, p=3))
    pruned53 = enumerate_graphs(SearchSpec(n=5, p=3, prune_canonical=True))
    assert len(base53.witnesses) == 219
    assert pruned53.witnesses == base53.witnesses

    # grouped searches prune by the relabelings that keep the groups, the
    # symmetry of the grouped predicate, so no grouped class is lost
    for p, classes in ((2, 6), (3, 72)):
        grouped = enumerate_graphs(SearchSpec(n=4, p=p, group_size=2))
        pruned = enumerate_graphs(SearchSpec(n=4, p=p, group_size=2, prune_canonical=True))
        assert len(grouped.witnesses) == classes
        assert pruned.witnesses == grouped.witnesses and pruned.pruned > 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_isolated_vertex_is_never_ame(data):
    # A vertex with a zero row is a product factor of the state: every cut
    # that holds it has a zero row in its cross block. So no graph with one
    # is AME, for the certifiers and the search's predicate alike, and the
    # search needs no layer of its own to drop such graphs.
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(2, 8))
    gsize = data.draw(st.sampled_from([d for d in range(1, n // 2 + 1) if n % d == 0]))
    v = data.draw(st.integers(0, n - 1))
    spec = SearchSpec(n=n, p=p, group_size=gsize)
    weights = st.lists(st.integers(0, p - 1), min_size=spec.edge_slots, max_size=spec.edge_slots)
    word = np.array(data.draw(weights), dtype=spec.word_dtype)
    word[np.delete(gr.slot_matrix(n)[v], v)] = 0
    g = graph_from_word(p, n, word)
    assert not g.adj[v].any() and not g.adj[:, v].any()
    assert not is_ame(g).is_ame
    assert not is_ame_grouped(g, [tuple(grp) for grp in spec.groups]).is_ame
    assert not search._predicate_mask(word[None], spec, {})[0]


def test_prune_canonical_bounded_by_relabelings():
    # 4 parties of 2 qudits: 4! * 2^4 = 384 relabelings, within the 8! bound
    spec = SearchSpec(n=8, p=2, group_size=2, mode="random", seed=1, samples=1000, prune_canonical=True)
    res = random_search(spec)
    assert res.examined + res.pruned == 1000 and res.pruned > 0
    # 3 parties of 4 qudits: 3! * 4!^3 = 82,944 relabelings
    with pytest.raises(ValueError, match="at most 40320 relabelings"):
        random_search(SearchSpec(n=12, p=2, group_size=4, mode="random", seed=1, samples=10,
                                 prune_canonical=True))


def test_relabeling_bound_refuses_before_any_word(monkeypatch):
    # a spec over the bound is refused even when no word survives the swap
    # test, and before any permutation is enumerated
    def enumerate_perms(*args):
        raise AssertionError("enumerated relabelings before refusing")

    monkeypatch.setattr(gr.itertools, "permutations", enumerate_perms)
    for n, gsize in ((9, 1), (12, 4), (12, 6)):
        spec = SearchSpec(n=n, p=2, group_size=gsize, prune_canonical=True)
        slots = spec.edge_slots
        swapped = np.zeros((3, slots), dtype=np.uint8)
        swapped[:, 0] = 1  # edge {0, 1}: swapping vertices 1 and 2 makes the word smaller
        assert gr._swap_smaller(swapped, 2, n // gsize, gsize).all()
        for words in (swapped, swapped[:0]):
            with pytest.raises(ValueError, match="at most 40320 relabelings"):
                _prune_mask(words, spec)
            with pytest.raises(ValueError, match="at most 40320 relabelings"):
                gr.is_minimal_word(words, 2, n // gsize, gsize)
            with pytest.raises(ValueError, match="at most 40320 relabelings"):
                gr.canonical_words(words, 2, n // gsize, gsize)


def test_prune_canonical_keeps_canonical_forms_at_n7():
    # 7! = 5040 relabelings, within the bound: a random search keeps
    # exactly the sampled words that canonical_form leaves unchanged
    spec = SearchSpec(n=7, p=2, mode="random", seed=3, samples=3000, prune_canonical=True)
    drawn = search._random_weights(np.random.default_rng(3), 3000, spec)
    kept = [bool((edge_word(canonical_form(graph_from_word(2, 7, w))) == w).all()) for w in drawn]
    assert (~_prune_mask(drawn, spec)).tolist() == kept
    res = random_search(spec)
    assert 0 < sum(kept) and res.witnesses == [] and res.examined == sum(kept)
    assert res.examined + res.pruned == 3000


@pytest.mark.parametrize("n, p, gsize, extra", [
    (6, 2, 1, []), (5, 3, 1, []), (4, 5, 2, []), (8, 2, 2, []),
    # past 2^53: a minimal word that the float64 swap test would reject
    (6, 13, 1, [[3, 3, 3, 4, 5, 9, 12, 4, 11, 12, 4, 11, 10, 8, 3]]),
])
def test_prune_canonical_matches_canonical_form(n, p, gsize, extra):
    # The canonical layer keeps a word exactly when canonical_form(_grouped)
    # returns its graph unchanged. The words include ones that no adjacent
    # swap makes smaller but some other relabeling does.
    spec = SearchSpec(n=n, p=p, group_size=gsize, prune_canonical=True)

    def canonical(word):
        g = graph_from_word(p, n, word)
        return edge_word(canonical_form_grouped(g, gsize) if gsize > 1 else canonical_form(g))

    drawn = np.random.default_rng(n * p).integers(0, p, size=(20000, spec.edge_slots), dtype=spec.word_dtype)
    unswapped = drawn[~gr._swap_smaller(drawn, p, n // gsize, gsize)][:300]
    words = np.vstack([drawn[:100], [canonical(w) for w in drawn[:100]], unswapped, *extra])
    minimal = [bool((canonical(w) == w).all()) for w in words]
    assert (~_prune_mask(words, spec)).tolist() == minimal
    assert all(minimal[100:200]) and any(minimal[200:]) and not all(minimal[200:])


def test_random_search_finds_known_witnesses():
    res = random_search(SearchSpec(n=5, p=2, mode="random", seed=7))
    assert len(res.witnesses) == 1 and is_ame(res.witnesses[0]).is_ame
    assert res.examined <= 10**6

    res62 = random_search(SearchSpec(n=6, p=2, mode="random", seed=11))
    assert res62.witnesses and is_ame(res62.witnesses[0]).is_ame


def test_random_search_reproducible():
    a = random_search(SearchSpec(n=5, p=2, mode="random", seed=123))
    b = random_search(SearchSpec(n=5, p=2, mode="random", seed=123))
    assert a.witnesses == b.witnesses and a.examined == b.examined


def test_random_search_no_witness_at_4_qubits():
    res = random_search(SearchSpec(n=4, p=2, mode="random", seed=5, samples=20000))
    assert res.witnesses == [] and res.examined == 20000


def test_random_dense_bias_still_valid():
    res = random_search(SearchSpec(n=5, p=3, mode="random", seed=1, dense_bias=True))
    assert res.witnesses and is_ame(res.witnesses[0]).is_ame


def test_weights_one_restriction():
    res = enumerate_graphs(SearchSpec(n=4, p=3, weights_one=True))
    assert res.examined == 2**6
    for w in res.witnesses:
        assert set(np.unique(w.adj)) <= {0, 1}


def test_grouped_search_trivial_pair():
    res = grouped_search(2, 1, 2, mode="exhaustive")
    assert len(res.witnesses) == 1
    assert res.witnesses[0].edges() == [(0, 1, 1)]


def test_grouped_search_4x1_exhaustive_empty():
    res = grouped_search(4, 1, 2, mode="exhaustive")
    assert res.witnesses == []


def test_grouped_search_4x2_random():
    res = grouped_search(4, 2, 2, mode="random", seed=2024)
    assert res.witnesses
    g = res.witnesses[0]
    groups = [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert is_ame_grouped(g, groups).is_ame
    assert not is_ame(g).is_ame


def test_grouped_engine_matches_reference():
    fast = enumerate_graphs(SearchSpec(n=4, p=2, group_size=2))
    ref = _reference_search(SearchSpec(n=4, p=2, group_size=2))
    assert fast.witnesses == ref.witnesses
    assert fast.examined == ref.examined == 64


def test_elapsed_covers_canonicalisation(monkeypatch):
    delay = 0.05

    def slowed(fn):
        def call(*args):
            time.sleep(delay)
            return fn(*args)
        return call

    monkeypatch.setattr(search, "_canonical_classes", slowed(search._canonical_classes))
    monkeypatch.setattr(search, "_dedupe_canonical", slowed(search._dedupe_canonical))
    monkeypatch.setattr(search, "canonical_form_grouped", slowed(search.canonical_form_grouped))
    assert enumerate_graphs(SearchSpec(n=3, p=2)).elapsed >= delay
    assert _reference_search(SearchSpec(n=3, p=2)).elapsed >= delay
    assert random_search(SearchSpec(n=3, p=2, mode="random", seed=1)).elapsed >= delay


def test_run_dispatch_and_stats_line():
    res = run(SearchSpec(n=4, p=2))
    line = res.stats_line()
    assert line.startswith("examined=64 pruned=0 witnesses=0 rate=")
    assert line.endswith("/s exhaustive=yes")


# gfp's cut-rank kernel: rank tables, row peeling and the stack-size rule

@pytest.mark.parametrize("p,rows,cols", [(2, 2, 3), (2, 3, 3), (3, 2, 2), (5, 1, 3),
                                         (3, 3, 3), (7, 2, 2), (2, 4, 4)])
def test_rank_tables_match_scalar_rank(p, rows, cols):
    table = gfp.rank_table(p, rows, cols)
    mats = gfp.digits(np.arange(p ** (rows * cols)), p, rows * cols).reshape(-1, rows, cols)
    if p == 2:  # scalar bitwise elimination on packed rows, about 20 times faster than mat_rank
        packed = (mats @ 2 ** np.arange(cols)).tolist()
        assert table.tolist() == [gfp.rank_gf2(m) for m in packed]
    else:
        assert table.tolist() == [gfp.mat_rank(m, p) for m in mats]


def test_rank_tables_hold_weights_beyond_int16():
    # the n = 2 cut is one weight; every nonzero weight, also above 32767, has rank 1
    table = gfp.rank_table(65537, 1, 1)
    assert table[0] == 0 and (table[1:] == 1).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_full_rank_matches_scalar_rank(p, rows, width, seed):
    assume(rows <= width)
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, size=(40, rows, width))
    for m in mats[::2]:  # every other matrix gets a row that depends on the others
        r = int(rng.integers(rows))
        m[r] = rng.integers(0, p, size=rows - 1) @ np.delete(m, r, axis=0) % p if rows > 1 else 0
    packed = (mats @ p ** np.arange(width)).T
    want = [gfp.mat_rank(m, p) for m in mats]
    # every cap up to the default, which alone decides: table lookups, one
    # or more peels, rank_batch
    caps = {1, 1 << 22} | {gfp._peel_bytes(p, w) for w in range(1, width + 1)}
    caps |= {p ** (r * (r + width - rows)) for r in range(1, rows + 1)}
    for cap in sorted(c for c in caps if c <= 1 << 22):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gfp, "_TABLE_CAP", cap)
            mp.setattr(gfp, "_REPAY", 1 << 62)
            assert gfp.rank_rows(packed, p, width).tolist() == want


def _count_calls(monkeypatch, *names):
    """Spy on gfp functions: the returned dict counts each one's calls."""
    calls = dict.fromkeys(names, 0)

    def spy(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in names:
        monkeypatch.setattr(gfp, name, spy(name, getattr(gfp, name)))
    return calls


@pytest.mark.parametrize("cap,peels,fallbacks", [(1 << 20, 0, 0), (4096, 1, 0), (1024, 2, 0), (1, 0, 1)])
def test_full_rank_peels_until_a_table_fits(monkeypatch, cap, peels, fallbacks):
    # 4 x 5 qubit matrices: a 2^20-byte table; _peel(2, 5) takes 1024 bytes,
    # the 3 x 4 table 4096 and the 2 x 3 table 64; the cap alone decides
    calls = _count_calls(monkeypatch, "_peel", "rank_batch")
    monkeypatch.setattr(gfp, "_TABLE_CAP", cap)
    monkeypatch.setattr(gfp, "_REPAY", 1 << 62)
    rng = np.random.default_rng(5)
    mats = rng.integers(0, 2, size=(500, 4, 5))
    got = gfp.rank_rows((mats @ 2 ** np.arange(5)).T, 2, 5)
    assert got.dtype == np.uint8 and got.tolist() == [gfp.mat_rank(m, 2) for m in mats]
    assert len(set(got.tolist())) > 1
    assert (calls["_peel"], calls["rank_batch"]) == (peels, fallbacks)


@pytest.mark.parametrize("p,count,peels,fallbacks", [(2, 1, 2, 0), (2, 200, 1, 0), (2, 1 << 16, 0, 0),
                                                     (3, 1000, 0, 1), (3, 4000, 2, 0)])
def test_rank_rows_builds_what_the_stack_repays(monkeypatch, p, count, peels, fallbacks):
    # 4 x 5 matrices; a stack of B affords 16 * (B + 64) bytes. At p = 2,
    # _peel(2, 5) takes 1024 bytes, _peel(2, 4) 256, the 2 x 3 table 64, the
    # 3 x 4 table 4096 and the stack's own 2^20. At p = 3, _peel(3, 5) takes
    # 59049, _peel(3, 4) 6561 and the 2 x 3 table 729, and the 3 x 4 table
    # 531441 bytes; a stack that cannot afford _peel(3, 5) is eliminated
    calls = _count_calls(monkeypatch, "_peel", "rank_batch")
    mats = np.random.default_rng(count).integers(0, p, size=(count, 4, 5))
    got = gfp.rank_rows((mats @ p ** np.arange(5)).T, p, 5)
    check = slice(None, None, -(-count // 500))  # mat_rank on at most 500
    assert got[check].tolist() == [gfp.mat_rank(m, p) for m in mats[check]]
    assert (calls["_peel"], calls["rank_batch"]) == (peels, fallbacks)


@pytest.mark.parametrize("p,width", [(7, 1), (5, 2), (3, 3), (2, 9)])
def test_peel_cap_counts_allocated_bytes(p, width):
    # at (2, 9) a reduced row takes 256 values, so each entry is two bytes
    assert gfp._peel_bytes(p, width) == gfp._peel(p, width).nbytes


def test_rank_tables_built_without_rank_batch(monkeypatch):
    def refuse(*args):
        raise AssertionError("rank_batch called")

    monkeypatch.setattr(gfp, "rank_batch", refuse)
    table = gfp.rank_table.__wrapped__(3, 3, 4)
    # 3 x 4 matrices mod 3 of rank 0, 1, 2 and 3; full rank: (3^4 - 1)(3^4 - 3)(3^4 - 9)
    assert table.size == 3**12 and np.bincount(table).tolist() == [1, 1040, 81120, 80 * 78 * 72]


# (spec fields, examined, pruned, witness line) of seeded random searches,
# recorded with the rank_batch engine that random search used before row
# peeling and chunk ids
RANDOM_PINS = [
    (dict(n=5, p=2, seed=7), 2, 0, "2 5 1 4 1 1 5 1 2 3 1 2 5 1 3 4 1 3 5 1 4 5 1"),
    (dict(n=5, p=3, seed=1, dense_bias=True), 1, 0,
     "3 5 1 4 2 1 5 2 2 3 2 2 4 1 2 5 1 3 4 1 3 5 2 4 5 2"),
    (dict(n=6, p=2, group_size=2, seed=5), 1, 0,
     "2 6 1 2 1 1 6 1 2 4 1 2 5 1 2 6 1 3 4 1 3 5 1 3 6 1 4 5 1 4 6 1 5 6 1"),
    (dict(n=6, p=5, seed=1, samples=10000), 50, 0,
     "5 6 1 4 2 1 5 2 1 6 4 2 3 1 2 4 2 2 5 2 2 6 1 3 4 2 3 5 3 3 6 3 4 5 1 4 6 2 5 6 1"),
    (dict(n=6, p=3, weights_one=True, seed=4, samples=20000), 93, 0,
     "3 6 1 4 1 1 5 1 1 6 1 2 3 1 2 5 1 2 6 1 3 4 1 3 6 1 4 6 1 5 6 1"),
    (dict(n=6, p=3, prune_rescale=True, seed=9, samples=20000), 34, 705,
     "3 6 1 4 1 1 5 1 1 6 1 2 3 1 2 5 1 2 6 2 3 4 2 3 5 1 3 6 1 4 6 1"),
    (dict(n=6, p=3, prune_canonical=True, seed=8, samples=20000), 28, 19972, None),
    (dict(n=6, p=7, seed=1, samples=2000), 3, 0,
     "7 6 1 2 1 1 3 1 1 4 1 1 5 3 1 6 3 2 3 1 2 4 3 2 5 2 2 6 6 3 4 5 3 5 4 3 6 5 4 5 6 4 6 5 5 6 4"),
    (dict(n=8, p=2, group_size=2, seed=2024), 8, 0,
     "2 8 1 6 1 1 8 1 2 4 1 2 6 1 2 7 1 2 8 1 3 4 1 3 5 1 3 8 1 4 8 1 5 7 1 5 8 1 6 7 1 6 8 1"),
    (dict(n=3, p=263, seed=1), 1, 0, "263 3 1 2 124 1 3 195 2 3 235"),
    (dict(n=7, p=2, dense_bias=True, seed=5, samples=30000), 30000, 0, None),
    (dict(n=10, p=2, seed=1, samples=20000), 20000, 0, None),
    # witnesses found after many draws, so the counts pin the sampling
    # stream itself: dense_bias at p = 2 (its nonzero draw takes no
    # randomness) and p = 3, and uniform p = 2 at two seeds
    (dict(n=6, p=2, dense_bias=True, seed=3, samples=20000), 26, 0,
     "2 6 1 4 1 1 5 1 1 6 1 2 3 1 2 5 1 2 6 1 3 4 1 3 6 1 4 6 1 5 6 1"),
    (dict(n=6, p=3, dense_bias=True, seed=3, samples=20000), 157, 0,
     "3 6 1 4 1 1 5 1 1 6 1 2 3 1 2 5 2 2 6 2 3 4 1 3 5 1 3 6 2 4 5 1 4 6 2 5 6 1"),
    (dict(n=6, p=2, seed=1, samples=20000), 671, 0,
     "2 6 1 4 1 1 5 1 1 6 1 2 3 1 2 5 1 2 6 1 3 4 1 3 6 1 4 5 1"),
    (dict(n=6, p=5, weights_one=True, seed=9, samples=20000), 615, 0,
     "5 6 1 4 1 1 5 1 1 6 1 2 3 1 2 5 1 2 6 1 3 4 1 3 6 1 4 6 1 5 6 1"),
    (dict(n=6, p=2, seed=6, samples=20000), 429, 0,
     "2 6 1 4 1 1 5 1 1 6 1 2 3 1 2 5 1 2 6 1 3 4 1 3 6 1 4 5 1"),
]


@pytest.mark.parametrize("fields,examined,pruned,line", RANDOM_PINS)
def test_random_search_pinned(fields, examined, pruned, line):
    res = random_search(SearchSpec(mode="random", **fields))
    assert (res.examined, res.pruned) == (examined, pruned)
    assert [format_graph_line(g) for g in res.witnesses] == ([line] if line else [])


def test_rank_stack_path_builds_no_chunk_ids(monkeypatch):
    # at p = 65537 a row's index does not fit int64, so every cut is ranked
    # by gfp.rank_stack on the words, which read no chunk ids
    calls = []
    build = search._chunk_ids
    monkeypatch.setattr(search, "_chunk_ids", lambda *args: calls.append(args) or build(*args))
    res = random_search(SearchSpec(n=8, p=65537, mode="random", seed=1, samples=16384))
    assert not calls
    assert [format_graph_line(g) for g in res.witnesses] == [
        "65537 8 1 2 1806 1 3 2284 1 4 21609 1 5 26817 1 6 29667 1 7 54912 1 8 56953 2 3 49491 "
        "2 4 56728 2 5 54245 2 6 49382 2 7 5619 2 8 16333 3 4 9447 3 5 33543 3 6 53933 3 7 62290 "
        "3 8 31011 4 5 42194 4 6 51671 4 7 35268 4 8 27743 5 6 36018 5 7 16842 5 8 62171 "
        "6 7 53579 6 8 17902 7 8 20436"]
    line = res.stats_line()
    assert line.startswith("examined=1 pruned=0 witnesses=1 rate=") and line.endswith("/s exhaustive=no")


def _rng_integers_weights(rng, count, spec):
    """The sampling stream as plain rng.integers calls: the reference the
    raw-word draws of search._random_weights must match bit for bit."""
    shape, dtype = (count, spec.edge_slots), spec.word_dtype
    if spec.weights_one:
        return rng.integers(0, 2, size=shape, dtype=dtype)
    if spec.dense_bias:
        w = rng.integers(1, spec.p, size=shape, dtype=dtype)
        w[rng.random(shape) < 1.0 / (2 * spec.p)] = 0
        return w
    return rng.integers(0, spec.p, size=shape, dtype=dtype)


_INTERLEAVED = [
    lambda rng: rng.random(3),
    lambda rng: rng.integers(0, 1 << 32, size=1, dtype=np.uint32),  # one buffered half-word
    lambda rng: rng.integers(0, 2, size=5, dtype=np.uint8),
    lambda rng: rng.integers(0, 7, size=2),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([dict(p=2), dict(p=2, weights_one=True), dict(p=3, weights_one=True),
                        dict(p=257, weights_one=True), dict(p=2, dense_bias=True),
                        dict(p=3, dense_bias=True), dict(p=5, dense_bias=True)]),
       st.integers(2, 10),
       st.lists(st.integers(0, 300) | st.sampled_from([(1 << 14) - 1, 1 << 14]), min_size=2, max_size=2),
       st.sampled_from(_INTERLEAVED), st.integers(0, 2**32 - 1))
def test_random_weights_match_rng_integers(fields, n, counts, draw, seed):
    # odd edge-slot counts (n = 2, 3, 6, 7, 10) and odd counts leave a
    # partial last word; the interleaved draw checks the state carries over
    spec = SearchSpec(n=n, mode="random", seed=seed, **fields)
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for count in counts:
        got, want = search._random_weights(fast, count, spec), _rng_integers_weights(ref, count, spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert fast.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(draw(fast), draw(ref))
        assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n,p,cap", [(9, 3, 1 << 22), (10, 2, 1 << 22), (10, 3, 1 << 22), (9, 2, 1),
                                     (8, 65537, 1 << 22)])
def test_predicate_matches_scalar_cut_ranks(monkeypatch, n, p, cap):
    # no exhaustive reference exists at these sizes: each cut's verdict on
    # sampled words against scalar cut_edits. n=9, 10 cuts are peeled once
    # (p=2, 3) or twice (n=10, p=3), the cap alone deciding (gfp._REPAY is
    # lifted); cap 1 sends them to rank_batch, and at p=65537 a row does
    # not pack into int64
    monkeypatch.setattr(gfp, "_TABLE_CAP", cap)
    monkeypatch.setattr(gfp, "_REPAY", 1 << 62)
    _check_predicate_cut_by_cut(SearchSpec(n=n, p=p, mode="random", seed=0), 48, n * p)


def _check_predicate_cut_by_cut(spec, count, seed):
    """_predicate_mask on `count` sampled words, one cut at a time and all
    cuts at once, against scalar cut_edits."""
    rng = np.random.default_rng(seed)
    words = search._random_weights(rng, count, spec)
    words[::3] = words[::3] * (rng.random(words[::3].shape) < 0.5)  # sparser: more rank-deficient cuts
    graphs = [graph_from_word(spec.p, spec.n, w) for w in words]
    chunks = {}
    every = np.ones(len(words), dtype=bool)
    for c, cut in enumerate(party_cuts(spec.groups)):
        want = np.array([cut_edits(g, cut) == len(cut) for g in graphs])
        assert search._predicate_mask(words, spec, chunks, [c]).tolist() == want.tolist()
        every &= want
    assert search._predicate_mask(words, spec, chunks).tolist() == every.tolist()


@pytest.mark.parametrize("n", [7, 8])
def test_predicate_on_two_chunk_tables_matches_scalar_cut_ranks(n):
    # the table path with two chunks of base-2 ids; 50 words leave a ragged
    # last group of eight for the packed-bit views
    spec = SearchSpec(n=n, p=2, mode="random", seed=0)
    _, table, fits = search._search_plan(spec)
    assert table is not None and fits and -(-spec.edge_slots // search._low_slots(spec)) == 2
    _check_predicate_cut_by_cut(spec, 50, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.integers(0, 9) | st.sampled_from([(1 << 14) - 1, 1 << 14]),
       st.integers(1, 14), st.booleans(), st.integers(0, 2**32 - 1))
def test_base2_chunk_ids_match_int64_sums(n, count, low, weights_one, seed):
    # odd E (n = 2, 3, 6, 7, 10, 11, 14, 15) and E > 57 (n >= 12); any
    # chunk width, the last chunk possibly shorter
    spec = SearchSpec(n=n, p=5 if weights_one else 2, weights_one=weights_one, mode="random", seed=seed)
    words = search._random_weights(np.random.default_rng(seed), count, spec)
    ids = search._chunk_ids(words, spec, low)
    want = np.zeros((-(-spec.edge_slots // low), count), dtype=np.int64)
    for c in range(len(want)):  # sum of w_k 2^(k - c low) over the chunk's slots k
        for k in range(c * low, min((c + 1) * low, spec.edge_slots)):
            want[c] += words[:, k].astype(np.int64) << (k - c * low)
    assert ids.dtype == np.intp and np.array_equal(ids, want)


def test_random_search_builds_tables_only_for_reached_cuts(monkeypatch):
    # n=16 p=2 seed 1: every sample fails the first of the 6,435 cuts, so
    # the search builds the chunk tables of that cut's 8 rows, in one
    # stacked call, and no others
    spec = SearchSpec(n=16, p=2, mode="random", seed=1, samples=10)
    plan, table, fits = search._search_plan(spec)
    assert table is None and fits
    words = search._random_weights(np.random.default_rng(1), 10, spec)
    first = plan.cuts[0]
    assert all(cut_edits(graph_from_word(2, 16, w), first) < len(first) for w in words)
    built = []

    def counted(coefs, *args):
        built.append([row.nonzero()[0].tolist() for row in coefs])
        return chunk_tables(coefs, *args)

    chunk_tables = search._chunk_tables
    monkeypatch.setattr(search, "_chunk_tables", counted)
    res = random_search(spec)
    assert (res.examined, res.pruned, res.witnesses) == (10, 0, [])
    assert built == [[sorted(row) for row in plan.cols[0].reshape(plan.rows, -1).tolist()]]


def test_random_search_memory_does_not_grow_with_the_cuts():
    # with the plan cached, 10 samples at n=16 p=2 cost the tables of the
    # one cut they reach, not a dense row per part of all 6,435 cuts (50 MB)
    spec = SearchSpec(n=16, p=2, mode="random", seed=1, samples=10)
    search._search_plan(spec)
    tracemalloc.start()
    try:
        res = random_search(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.examined, res.witnesses) == (10, [])
    assert peak < 8 << 20


def test_spec_refuses_invalid_sizes():
    for fields in (dict(workers=0), dict(workers=-2), dict(samples=-3), dict(group_size=0)):
        with pytest.raises(ValueError):
            SearchSpec(n=4, p=2, mode="random", seed=1, **fields)
    assert random_search(SearchSpec(n=4, p=2, mode="random", seed=1, samples=0)).examined == 0
