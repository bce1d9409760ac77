import concurrent.futures
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amegraph import gfp, search
from amegraph.entanglement import is_ame, is_ame_grouped
from amegraph.graph import (
    canonical_form,
    canonical_form_grouped,
    edge_word,
    graph_from_edges,
    graph_from_word,
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


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (5, 2), (2, 257)])
def test_engine_matches_reference(n, p):
    fast = enumerate_graphs(SearchSpec(n=n, p=p))
    ref = _reference_search(SearchSpec(n=n, p=p))
    assert fast.witnesses == ref.witnesses
    assert fast.examined == ref.examined


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.sampled_from([(2, 1), (3, 1), (4, 1), (4, 2)]),
       st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_engine_matches_reference_on_random_specs(p, shape, weights_one, zero_row, rescale,
                                                  canonical):
    n, group_size = shape
    spec = SearchSpec(n=n, p=p, group_size=group_size, weights_one=weights_one,
                      prune_zero_row=zero_row, prune_rescale=rescale, prune_canonical=canonical)
    assume(spec.base**spec.edge_slots <= 729)  # the scalar reference stays fast
    fast, ref = enumerate_graphs(spec), _reference_search(spec)
    assert fast.witnesses == ref.witnesses
    assert (fast.examined, fast.pruned) == (ref.examined, ref.pruned)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.sampled_from([(2, 1), (3, 1), (4, 1), (4, 2)]),
       st.booleans(), st.booleans(), st.booleans(), st.booleans(),
       st.sampled_from([1, 3, 9, 27]), st.sampled_from([1, 3]))
def test_many_blocks_match_reference(p, shape, weights_one, zero_row, rescale, canonical, low_ids,
                                     workers):
    # blocks of at most low_ids ids, so every spec spans many high parts
    n, group_size = shape
    spec = SearchSpec(n=n, p=p, group_size=group_size, weights_one=weights_one, workers=workers,
                      prune_zero_row=zero_row, prune_rescale=rescale, prune_canonical=canonical)
    assume(spec.base**spec.edge_slots <= 729)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_LOW_IDS", low_ids)
        fast = enumerate_graphs(spec)
        raw = _raw_scan(spec)
    ref = _reference_search(spec)
    assert fast.witnesses == ref.witnesses
    assert (fast.examined, fast.pruned) == (ref.examined, ref.pruned)
    # the raw witness ids, in order, are those of the digit path: every id
    # expanded, pruned by _prune_mask and ranked by _predicate_mask
    ids = np.arange(spec.base**spec.edge_slots)
    weights = search._weights_from_ids(ids, spec)
    keep = ~_prune_mask(weights, spec)
    passed = search._predicate_mask(weights[keep], spec, search._cut_plans(spec))
    assert raw[0].tolist() == ids[keep][passed].tolist()


@pytest.mark.parametrize("flags", [
    dict(n=5, p=2, prune_zero_row=True, prune_canonical=True, workers=3),
    dict(n=4, p=3, weights_one=True, prune_zero_row=True, prune_rescale=True),
    dict(n=4, p=3, group_size=2, prune_rescale=True, workers=3),
    dict(n=4, p=5, prune_zero_row=True, prune_rescale=True),
])
def test_many_blocks_match_reference_on_pruned_specs(monkeypatch, flags):
    spec = SearchSpec(**flags)
    monkeypatch.setattr(search, "_LOW_IDS", spec.base)  # one edge slot per low part
    fast, ref = enumerate_graphs(spec), _reference_search(spec)
    assert fast.witnesses == ref.witnesses
    assert (fast.examined, fast.pruned) == (ref.examined, ref.pruned) and fast.pruned > 0


def _raw_scan(spec):
    scan = search._BlockScan(spec)
    return search._scan_blocks(0, spec.base**spec.edge_slots // scan.size, spec, scan)


@pytest.mark.parametrize("flags", [dict(n=5, p=3), dict(n=4, p=5, prune_rescale=True),
                                   dict(n=4, p=3, group_size=2, prune_zero_row=True)])
def test_rank_fallback_matches_tables(monkeypatch, flags):
    spec = SearchSpec(**flags)
    monkeypatch.setattr(search, "_LOW_IDS", 243)
    ids, examined, pruned = _raw_scan(spec)
    assert len(ids) > 0
    with_tables = enumerate_graphs(spec)
    monkeypatch.setattr(search, "_TABLE_CAP", 1)  # no cut has a table: gfp.rank_batch ranks each
    assert all(cut.table is None for cut in search._cut_plans(spec))
    fallback_ids, fallback_examined, fallback_pruned = _raw_scan(spec)
    assert fallback_ids.tolist() == ids.tolist()
    assert (fallback_examined, fallback_pruned) == (examined, pruned)
    assert enumerate_graphs(spec).witnesses == with_tables.witnesses


@pytest.mark.parametrize("flags", [dict(n=6, p=2), dict(n=5, p=3, prune_zero_row=True),
                                   dict(n=4, p=5, prune_zero_row=True, prune_rescale=True)])
def test_first_cut_reuse_matches_fresh_blocks(monkeypatch, flags):
    # blocks of at most 27 ids; reusing first-cut survivors across blocks
    # with the same row key and offset changes no id or count
    spec = SearchSpec(**flags)
    monkeypatch.setattr(search, "_LOW_IDS", 27)
    reused = _raw_scan(spec)
    for cap in (0, 1):
        monkeypatch.setattr(search, "_REUSE_CAP", cap)
        fresh = _raw_scan(spec)
        assert fresh[0].tolist() == reused[0].tolist() and fresh[1:] == reused[1:]


@pytest.mark.parametrize("flags", [dict(n=5, p=3), dict(n=4, p=5), dict(n=4, p=3, group_size=2),
                                   dict(n=4, p=5, group_size=2, prune_zero_row=True),
                                   dict(n=4, p=5, prune_rescale=True), dict(n=5, p=5, weights_one=True)])
def test_class_candidates_keep_every_class(flags):
    spec = SearchSpec(**flags)
    ids = _raw_scan(spec)[0]
    candidates = search._class_candidates(ids, spec)
    assert set(candidates.tolist()) <= set(ids.tolist())
    assert search._canonical_classes(candidates, spec) == search._canonical_classes(ids, spec)
    if not spec.prune_rescale:
        assert len(candidates) < len(ids)


def test_exhaustive_refuses_n_over_8_before_scanning(monkeypatch):
    def scan(*args):
        raise AssertionError("scanned before refusing")

    monkeypatch.setattr(search, "_scan_blocks", scan)
    with pytest.raises(ValueError, match="n <= 8 only"):
        enumerate_graphs(SearchSpec(n=9, p=2, budget=2**36))
    with pytest.raises(BudgetExceededError):  # the budget is still checked first
        enumerate_graphs(SearchSpec(n=9, p=2))


def test_thread_pool_bounded_by_blocks(monkeypatch):
    sizes = []

    class Spy:
        """Records max_workers and maps in the calling thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(search, "_LOW_IDS", 16)  # n=5, p=2: 2^10 ids in 64 blocks of 2^4
    single = enumerate_graphs(SearchSpec(n=5, p=2))
    many = enumerate_graphs(SearchSpec(n=5, p=2, workers=5000))
    assert sizes == [64]
    assert (many.witnesses, many.examined) == (single.witnesses, single.examined)
    enumerate_graphs(SearchSpec(n=3, p=2, workers=5000))  # 8 ids in one block: no pool
    assert sizes == [64]


def test_edge_words_wider_than_a_byte():
    # weight 256 must not wrap to 0 in the edge word
    res = enumerate_graphs(SearchSpec(n=2, p=257))
    assert sorted(int(g.adj[0, 1]) for g in res.witnesses) == list(range(1, 257))
    res = random_search(SearchSpec(n=3, p=263, mode="random", seed=1))
    assert len(res.witnesses) == 1 and is_ame(res.witnesses[0]).is_ame


def test_worker_count_does_not_change_results():
    single = enumerate_graphs(SearchSpec(n=5, p=2, workers=1))
    multi = enumerate_graphs(SearchSpec(n=5, p=2, workers=4))
    assert single.witnesses == multi.witnesses
    assert single.examined == multi.examined


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
    for flags in (
        dict(prune_zero_row=True),
        dict(prune_canonical=True),
        dict(prune_zero_row=True, prune_canonical=True),
    ):
        pruned = enumerate_graphs(SearchSpec(n=4, p=3, **flags))
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
    pruned52 = enumerate_graphs(SearchSpec(n=5, p=2, prune_zero_row=True, prune_canonical=True))
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


def test_prune_canonical_bounded_by_relabelings():
    # 4 parties of 2 qudits: 4! * 2^4 = 384 relabelings, within the 720 of n = 6
    spec = SearchSpec(n=8, p=2, group_size=2, mode="random", seed=1, samples=1000, prune_canonical=True)
    res = random_search(spec)
    assert res.examined + res.pruned == 1000 and res.pruned > 0
    rng = np.random.default_rng(9)
    words = rng.integers(0, 2, size=(60, spec.edge_slots), dtype=spec.word_dtype)
    minimal = [edge_word(canonical_form_grouped(graph_from_word(2, 8, w), 2)) for w in words]
    words = np.vstack([words, minimal])
    keep = ~_prune_mask(words, spec)
    assert keep.tolist() == [bool((edge_word(canonical_form_grouped(graph_from_word(2, 8, w), 2)) == w).all())
                             for w in words]
    assert keep[60:].all()
    # 7! = 5040 relabelings of 7 single qudits
    with pytest.raises(ValueError):
        random_search(SearchSpec(n=7, p=2, mode="random", seed=1, samples=10, prune_canonical=True))


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
    monkeypatch.setattr(search, "canonical_form", slowed(search.canonical_form))
    assert enumerate_graphs(SearchSpec(n=3, p=2)).elapsed >= delay
    assert _reference_search(SearchSpec(n=3, p=2)).elapsed >= delay
    assert random_search(SearchSpec(n=3, p=2, mode="random", seed=1)).elapsed >= delay


def test_run_dispatch_and_stats_line():
    res = run(SearchSpec(n=4, p=2))
    line = res.stats_line()
    assert line.startswith("examined=64 pruned=0 witnesses=0 rate=")
    assert line.endswith("/s exhaustive=yes")


@pytest.mark.parametrize("p,rows,cols", [(2, 2, 3), (2, 3, 3), (3, 2, 2), (5, 1, 3)])
def test_rank_tables_match_scalar_rank(p, rows, cols):
    table = search._rank_full_table(p, rows, cols)
    mats = gfp.digits(np.arange(p ** (rows * cols)), p, rows * cols).reshape(-1, rows, cols)
    assert table.tolist() == [gfp.mat_rank(m, p) == rows for m in mats]


def test_rank_tables_hold_weights_beyond_int16():
    # the n = 2 cut is one weight; every nonzero weight, also above 32767, is full rank
    table = search._rank_full_table(65537, 1, 1)
    assert not table[0] and table[1:].all()
