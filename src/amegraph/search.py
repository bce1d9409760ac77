"""High-throughput exhaustive and randomized search for AME graph states.

Graphs on n vertices are encoded as weight words over the C(n, 2) edge
slots in lexicographic order; an exhaustive run scans all base^E words
(base = p, or 2 under the weight-one restriction) as the little-endian
integers of gfp.digits, so sharding on the last t edge weights splits the
id range into contiguous blocks. The rank predicate is evaluated in bulk:
for each cut the relevant edge digits are gathered and looked up in a
precomputed "is full rank" table (built by gfp.rank_batch). Survivors
are compacted after every cut, so each cut looks up only the graphs that
passed the cuts before it.

Witnesses are reported one per relabeling class (relabelings that keep
the groups, when there are groups), as the canonical form of graph.py.
Canonicalisation stays on edge words: the lexicographically smallest
adjacency of a class is the relabeling whose edge word is the smallest
big-endian number, and graph.canonical_words finds it for a whole batch
of words with one float64 matrix product per block of words and
relabelings. That product is exact while base^E <= 2^53; longer words
are compared in limbs of at most 2^53 each, most significant first. An
exhaustive run canonicalises all raw witnesses at once, dedupes their
integer ids with np.unique and builds a Graph only for each class. The
prune_canonical layer uses the same kernel to drop every graph whose
edge word is not already minimal. A result's `elapsed` covers the whole
call, canonicalisation included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from . import gfp
from .entanglement import cut_edits, party_cuts
from .graph import (
    Graph,
    canonical_form,
    canonical_form_grouped,
    canonical_words,
    graph_from_word,
    slot_matrix,
)

_CHUNK = 1 << 16
_TABLE_CAP = 1 << 22
_PRUNE_RELABELINGS = 720  # most relabelings canonical pruning compares each word with (6! at n = 6)


class BudgetExceededError(ValueError):
    pass


@dataclass
class SearchSpec:
    n: int
    p: int
    mode: str = "exhaustive"  # or "random"
    group_size: int = 1
    seed: int | None = None
    workers: int = 1
    samples: int = 10**6
    budget: int = 1 << 23
    weights_one: bool = False
    dense_bias: bool = False
    prune_zero_row: bool = False
    prune_rescale: bool = False
    prune_canonical: bool = False

    def __post_init__(self):
        gfp.ensure_prime(self.p)
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n % self.group_size:
            raise ValueError("group size must divide the vertex count")
        if self.n // self.group_size < 2:
            raise ValueError("need at least two parties")

    @property
    def base(self) -> int:
        return 2 if self.weights_one else self.p

    @property
    def edge_slots(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def groups(self) -> list[range]:
        """The parties: consecutive blocks of group_size vertices."""
        gs = self.group_size
        return [range(t * gs, (t + 1) * gs) for t in range(self.n // gs)]

    @property
    def word_dtype(self) -> np.dtype:
        """Smallest unsigned dtype that holds every edge weight."""
        return np.min_scalar_type(self.base - 1)


@dataclass
class SearchResult:
    witnesses: list[Graph]
    examined: int
    pruned: int
    elapsed: float
    exhaustive: bool
    spec: SearchSpec = field(repr=False, default=None)

    @property
    def rate(self) -> float:
        """Predicate checks per second."""
        return self.examined / max(self.elapsed, 1e-9)

    def stats_line(self) -> str:
        return (
            f"examined={self.examined} pruned={self.pruned} "
            f"witnesses={len(self.witnesses)} rate={int(self.rate)}/s "
            f"exhaustive={'yes' if self.exhaustive else 'no'}"
        )


@lru_cache(maxsize=None)
def _rank_full_table(p: int, rows: int, cols: int) -> np.ndarray:
    """table[v] = True iff the (rows x cols) matrix packed into the base-p
    digits of v (row-major, digit 0 first) has full row rank; ranked in
    chunks of _CHUNK matrices."""
    total = p ** (rows * cols)
    out = np.empty(total, dtype=bool)
    for lo in range(0, total, _CHUNK):
        ids = np.arange(lo, min(lo + _CHUNK, total))
        mats = gfp.digits(ids, p, rows * cols, np.min_scalar_type(p - 1))
        out[lo : lo + len(ids)] = gfp.rank_batch(mats.reshape(-1, rows, cols), p) == rows
    return out


def _cut_plans(spec: SearchSpec):
    """Per cut: gather columns, expected rank, and lookup table if small."""
    n, p = spec.n, spec.p
    slot = slot_matrix(n)
    plans = []
    for cut in party_cuts(spec.groups):
        rest = [u for u in range(n) if u not in cut]
        rows, width = len(cut), len(rest)
        table = None
        if p ** (rows * width) <= _TABLE_CAP:
            table = _rank_full_table(p, rows, width)
        plans.append((slot[np.ix_(cut, rest)].ravel(), rows, width, table))
    # most selective first is irrelevant by symmetry; keep deterministic order
    return plans


def _predicate_mask(weights: np.ndarray, spec: SearchSpec, plans) -> np.ndarray:
    """Boolean mask of rows of `weights` whose graphs pass every cut."""
    p = spec.p
    alive = np.arange(weights.shape[0])
    for cols, rows, width, table in plans:
        sub = weights[alive][:, cols].astype(np.int64)
        if table is not None:
            packed = sub @ (p ** np.arange(rows * width, dtype=np.int64))
            ok = table[packed]
        else:
            ok = gfp.rank_batch(sub.reshape(-1, rows, width), p) == rows
        alive = alive[ok]
        if alive.size == 0:
            break
    mask = np.zeros(weights.shape[0], dtype=bool)
    mask[alive] = True
    return mask


def _minimal_words(weights: np.ndarray, spec: SearchSpec) -> np.ndarray:
    """Minimal edge words over the relabelings that keep the groups."""
    return canonical_words(weights, spec.base, spec.n // spec.group_size, spec.group_size)


def _prune_mask(weights: np.ndarray, spec: SearchSpec) -> np.ndarray:
    """True where a pruning layer rejects the graph before the predicate."""
    n = spec.n
    slot = slot_matrix(n)
    pruned = np.zeros(weights.shape[0], dtype=bool)
    if spec.prune_zero_row:
        for v in range(n):
            pruned |= (weights[:, np.delete(slot[v], v)] == 0).all(axis=1)
    if spec.prune_rescale and spec.p > 2:
        # a graph is scale-normal when each vertex's first nonzero incident
        # weight (neighbors in ascending order) is 1; every rescaling orbit
        # contains exactly such representatives
        for v in range(n):
            wv = weights[:, np.delete(slot[v], v)]
            nz = wv != 0
            has = nz.any(axis=1)
            first = wv[np.arange(len(wv)), nz.argmax(axis=1)]
            pruned |= has & (first != 1)
    if spec.prune_canonical:
        # keep one graph per orbit of the relabelings that preserve the
        # groups (the predicate is invariant under exactly these): the one
        # whose edge word is already minimal
        gcount, gsize = n // spec.group_size, spec.group_size
        if factorial(gcount) * factorial(gsize) ** gcount > _PRUNE_RELABELINGS:
            raise ValueError(
                f"canonical pruning compares each graph with its relabelings; "
                f"at most {_PRUNE_RELABELINGS} allowed"
            )
        pruned |= (_minimal_words(weights, spec) != weights).any(axis=1)
    return pruned


def _weights_from_ids(ids: np.ndarray, spec: SearchSpec) -> np.ndarray:
    return gfp.digits(ids, spec.base, spec.edge_slots, spec.word_dtype)


def _scan_ids(lo: int, hi: int, spec: SearchSpec, plans) -> tuple[np.ndarray, int, int]:
    """Scan an id range; returns (witness ids, examined, pruned)."""
    wit = [np.empty(0, dtype=np.int64)]
    examined = 0
    pruned_total = 0
    for start in range(lo, hi, _CHUNK):
        ids = np.arange(start, min(start + _CHUNK, hi), dtype=np.int64)
        weights = _weights_from_ids(ids, spec)
        pruned = _prune_mask(weights, spec)
        keep = ~pruned
        pruned_total += int(pruned.sum())
        examined += int(keep.sum())
        mask = _predicate_mask(weights[keep], spec, plans)
        if mask.any():
            wit.append(ids[keep][mask])
    return np.concatenate(wit), examined, pruned_total


def _dedupe_canonical(graphs: list[Graph], group_size: int = 1) -> list[Graph]:
    """Scalar reference dedupe: one canonical_form call per graph."""
    seen: dict[bytes, Graph] = {}
    for g in graphs:
        cf = canonical_form_grouped(g, group_size) if group_size > 1 else canonical_form(g)
        seen.setdefault(cf.adj.tobytes(), cf)
    return [seen[k] for k in sorted(seen)]


def _canonical_classes(ids: np.ndarray, spec: SearchSpec) -> list[Graph]:
    """One canonical Graph per relabeling class of the graphs with these
    ids, in the order of _dedupe_canonical."""
    if spec.n > 8:
        raise ValueError("canonical_form enumerates n! permutations; n <= 8 only")
    words = _minimal_words(_weights_from_ids(ids, spec), spec)
    canon = np.zeros(len(words), dtype=np.int64)  # their scan ids, without an int64 copy of words
    for digit in words.T[::-1]:
        canon = canon * spec.base + digit
    classes = _weights_from_ids(np.unique(canon), spec)
    return sorted((graph_from_word(spec.p, spec.n, w) for w in classes), key=lambda g: g.adj.tobytes())


def enumerate_graphs(spec: SearchSpec) -> SearchResult:
    """Exhaustive scan of every weight assignment, deterministic witnesses.

    The witness list is the canonical forms of all passing graphs,
    deduplicated; it does not depend on worker count or shard order.
    """
    t0 = time.perf_counter()
    total = spec.base**spec.edge_slots
    if total > spec.budget:
        raise BudgetExceededError(f"{total} graphs exceed the budget of {spec.budget}")
    plans = _cut_plans(spec)

    shards = 1
    t_fixed = 0
    while shards < spec.workers and t_fixed < spec.edge_slots:
        shards *= spec.base
        t_fixed += 1
    step = total // shards
    bounds = [(s * step, total if s == shards - 1 else (s + 1) * step) for s in range(shards)]

    if spec.workers > 1 and len(bounds) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            parts = list(pool.map(lambda b: _scan_ids(b[0], b[1], spec, plans), bounds))
    else:
        parts = [_scan_ids(lo, hi, spec, plans) for lo, hi in bounds]

    examined = sum(part[1] for part in parts)
    pruned = sum(part[2] for part in parts)
    witnesses = _canonical_classes(np.concatenate([part[0] for part in parts]), spec)
    elapsed = time.perf_counter() - t0
    return SearchResult(witnesses, examined, pruned, elapsed, True, spec)


def _random_weights(rng: np.random.Generator, count: int, spec: SearchSpec) -> np.ndarray:
    shape, dtype = (count, spec.edge_slots), spec.word_dtype
    if spec.weights_one:
        return rng.integers(0, 2, size=shape, dtype=dtype)
    if spec.dense_bias:
        w = rng.integers(1, spec.p, size=shape, dtype=dtype)
        w[rng.random(shape) < 1.0 / (2 * spec.p)] = 0
        return w
    return rng.integers(0, spec.p, size=shape, dtype=dtype)


def random_search(spec: SearchSpec) -> SearchResult:
    """Sample graphs until the predicate passes or the budget runs out.

    Stops at the first witness; reproducible for a fixed seed (worker
    count does not enter the sampling stream).
    """
    t0 = time.perf_counter()
    plans = _cut_plans(spec)
    rng = np.random.default_rng(spec.seed)
    examined = 0
    pruned_total = 0
    drawn = 0
    batch = 1 << 14
    while drawn < spec.samples:
        count = min(batch, spec.samples - drawn)
        weights = _random_weights(rng, count, spec)
        drawn += count
        pruned = _prune_mask(weights, spec)
        keep = ~pruned
        mask = np.zeros(count, dtype=bool)
        mask[keep] = _predicate_mask(weights[keep], spec, plans)
        if mask.any():
            first = int(mask.argmax())
            examined += int(keep[: first + 1].sum())
            pruned_total += int(pruned[: first + 1].sum())
            g = graph_from_word(spec.p, spec.n, weights[first])
            cf = canonical_form_grouped(g, spec.group_size) if spec.group_size > 1 else canonical_form(g)
            return SearchResult([cf], examined, pruned_total, time.perf_counter() - t0, False, spec)
        examined += int(keep.sum())
        pruned_total += int(pruned.sum())
    elapsed = time.perf_counter() - t0
    return SearchResult([], examined, pruned_total, elapsed, False, spec)


def grouped_search(n_parties: int, group_size: int, p: int, **kwargs) -> SearchResult:
    """Search for grouped-AME witnesses: n_parties groups of group_size qudits."""
    spec = SearchSpec(n=n_parties * group_size, p=p, group_size=group_size, **kwargs)
    return run(spec)


def run(spec: SearchSpec) -> SearchResult:
    if spec.mode == "exhaustive":
        return enumerate_graphs(spec)
    return random_search(spec)


def _reference_search(spec: SearchSpec) -> SearchResult:
    """Scalar reference path used to validate the vectorized engine."""
    if spec.mode != "exhaustive":
        raise ValueError("reference path is exhaustive only")
    t0 = time.perf_counter()
    total = spec.base**spec.edge_slots
    if total > spec.budget:
        raise BudgetExceededError(f"{total} graphs exceed the budget of {spec.budget}")
    # every union of floor(G/2) groups, complements included, each ranked
    # by scalar cut_edits: independent of party_cuts and gfp.rank_batch
    half = spec.n // spec.group_size // 2 * spec.group_size
    cuts = [
        cut for cut in combinations(range(spec.n), half)
        if all(set(grp) <= set(cut) or set(grp).isdisjoint(cut) for grp in spec.groups)
    ]
    witnesses = []
    examined = 0
    pruned_total = 0
    for gid in range(total):
        weights = _weights_from_ids(np.array([gid]), spec)
        if bool(_prune_mask(weights, spec)[0]):
            pruned_total += 1
            continue
        examined += 1
        g = graph_from_word(spec.p, spec.n, weights[0])
        if all(cut_edits(g, cut) == len(cut) for cut in cuts):
            witnesses.append(g)
    witnesses = _dedupe_canonical(witnesses, spec.group_size)
    return SearchResult(witnesses, examined, pruned_total, time.perf_counter() - t0, True, spec)
