"""High-throughput exhaustive and randomized search for AME graph states.

Graphs on n vertices are encoded as weight words over the C(n, 2) edge
slots in lexicographic order. An exhaustive run scans all base^E words
(base = p, or 2 under the weight-one restriction) as the little-endian
integers of gfp.digits.

The rank predicate asks that each cut's cross block, at its edge slots
(its row of the groups' entanglement.cut_plan `cols`, read when needed),
have full row rank. Where gfp affords the blocks' rank_table for every
graph the search may examine (base^E of them, or the samples), a block,
read row-major, packs into the index sum_k w_k p^k of that table: one
lookup per cut. Otherwise each row of the block packs into its own index
and gfp.rank_rows ranks the rows; where a row's index would not fit
int64, gfp.rank_stack ranks the block itself. Both choices hold for the
whole plan (_search_plan).

Both modes index a cut through chunk tables. Chunk c holds the L edge
slots from c * L on, base^L being at most _LOW_IDS, and a word's id over
a chunk reads those slots as a little-endian base-`base` number. Each
slot owns its own positions in a cut's index, so the index of a part of
the cut (its whole cross block when the plan has a table, else each row)
is the sum, with no carries, of the part's _chunk_tables at the word's
chunk ids. _chunk_tables builds the tables of a stack of parts at once,
one broadcast per slot.

The exhaustive scan never expands an id into digits to form a cut's
index. A scan id is hi * base^L + lo: lo is its id over chunk 0, and hi,
written in base base^L, holds its ids over chunks 1, 2, .... So a part's
index is A[lo] + B(hi): A is its chunk-0 table, over every low id, and B
its other chunk tables summed at the block's chunk ids. Per cut, a block
takes A at its surviving low ids and looks them up in the table shifted
by B, or hands each row's A + B to gfp.rank_rows; survivors are compacted
after every cut, so each cut sees only the graphs that passed the cuts
before it. The first cut is the one with the fewest high slots, and
with a table a block's survivors of it depend only on its B and its row
key (below), so they are kept and reused by later blocks. The scan's
set-up (_BlockScan) builds the tables of every cut part in one stacked
call and those of every swap form (below) in another. It is cached per
spec (_block_scan), its read-only arrays counted against gfp._TABLE_CAP
bytes for all cached scans together, so a second scan of a spec builds
nothing; a larger set-up is built for its own call and not kept.

Random search packs each batch of sampled words once into its chunk
ids: at base 2 read off the words packed into bits, else by one float64
product, exact since each id is below base^L. Each cut compacts its
survivors once, their chunk ids and their rows in the batch by one index
array, and a batch is copied only when a prune layer dropped some of
it. A cut's chunk tables, all its parts in one stacked build, are built
once per call, when a batch first reaches it.

Samples come from one seeded numpy Generator, and the stream is pinned:
a seed gives the same graphs as plain rng.integers calls. Two-valued
weights (p = 2, weights_one, dense_bias at p = 3) are the top bits of
the bytes of PCG64's raw 64-bit outputs, each read as the two 32-bit
words numpy would draw from it; that is how numpy makes them, so the
weights and the generator's state after the draw are unchanged
(_integers).

The rescale pruning layer is a row plan split the same way. A vertex's
slots ascend with its neighbours, so its low slots are a prefix of its
row: its first nonzero weight lies in the low part unless that part is
zero. Two flags per vertex over the low ids ("low part zero", "low part
leads with a weight other than 1") and a row key per block (a bit per
vertex whose high part leads with a weight other than 1) give the ids
the layer prunes. No layer drops graphs with a zero row: such a vertex is
a product factor, so every cut that holds it fails the predicate anyway.

The prune_canonical layer is split the same way. Adjacent swap k of
graph._swap_keys makes a word smaller iff the linear form
(key_0 - key_k) . word is positive: D_k[lo] + H_k(hi) over its int64
chunk tables. A block drops the ids where D_k exceeds -H_k for some k
and expands into digits only the few percent left, which
graph.is_minimal_word decides. The form lies within (-base^E, base^E)
and scan ids are int64, so the compare is exact.

Digits in base `base` are still expanded for the row keys, once per
batch of blocks (their high slots only). Every other expansion reads the
scan's digit table, `low_digits`, the digits of every low id: id
hi * size + lo is low_digits[lo] followed by the digits of hi alone
(_weights_from_ids). That serves a block's swap survivors, a block's
live ids where a row index would not fit int64, and the raw witnesses'
classes; enumerate_graphs hands its one scan to the scan and to the
classes, so a scan too large for the cache is built once per call.

Witnesses are reported one per relabeling class (relabelings that keep
the groups) as graph's canonical form. graph owns the minimality test
and the relabeling bound, which an exhaustive run checks before it
scans. The predicate and the canonical layer are invariant under those
relabelings, so the classes are the raw witnesses that
graph.is_minimal_word keeps, sorted as words into the byte order of
their adjacency and made Graphs by one graphs_from_words call.
Scale-normal witnesses (prune_rescale) are not closed under relabeling:
those are canonicalised and deduped by integer id. Random search prunes
each batch of sampled words with _prune_mask, whose canonical layer is
is_minimal_word on every word. A result's `elapsed` covers the whole
call, canonicalisation included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import gfp
from .entanglement import CutPlan, cut_edits, cut_plan
from .graph import (
    Graph,
    _swap_keys,
    canonical_form_grouped,
    canonical_words,
    check_relabelings,
    graph_from_word,
    graphs_from_words,
    is_minimal_word,
    slot_matrix,
)

_CHUNK = 1 << 16
_LOW_IDS = 1 << 14  # most ids in one block of the exhaustive scan
_BLOCK_BATCH = 1 << 10  # blocks whose chunk ids and row keys are expanded together
_REUSE_CAP = 256  # most first-cut survivor arrays the scan keeps for reuse, each of at most _LOW_IDS intp


class BudgetExceededError(ValueError):
    pass


@dataclass
class SearchSpec:
    n: int
    p: int
    mode: str = "exhaustive"  # or "random"
    group_size: int = 1
    seed: int | None = None
    workers: int = 1  # validated but not read: kept for compatibility, the search is serial
    samples: int = 10**6
    budget: int = 1 << 23
    weights_one: bool = False
    dense_bias: bool = False
    prune_rescale: bool = False
    prune_canonical: bool = False

    def __post_init__(self):
        gfp.ensure_prime(self.p)
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.group_size < 1:
            raise ValueError(f"group size must be at least 1, got {self.group_size}")
        if self.n % self.group_size:
            raise ValueError("group size must divide the vertex count")
        if self.n // self.group_size < 2:
            raise ValueError("need at least two parties")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.samples < 0:
            raise ValueError(f"samples must be at least 0, got {self.samples}")

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


def _chunk_tables(coefs: np.ndarray, low: int, base: int,
                  dtype=None) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(c, rows, tables) for each chunk c of `low` edge slots that holds a
    slot of some part, `coefs` being the parts' dense rows over the edge
    slots, a (parts, E) stack (from _cut_coefs, or swap forms): `rows` are
    the parts with a slot in chunk c, and tables[i, x] is part rows[i]'s
    partial index over id x of chunk c. A part's index is the sum of its
    tables at the word's chunk ids. Like gfp.digit_sums, each slot is one
    broadcast, here for all those parts at once. `dtype` defaults to the
    smallest that holds the largest part's index."""
    if dtype is None:
        dtype = np.min_scalar_type(int(coefs.sum(axis=1).max()) * (base - 1))
    digit = np.arange(base, dtype=dtype)
    out = []
    for c, s in enumerate(range(0, coefs.shape[1], low)):
        rows = np.flatnonzero(coefs[:, s : s + low].any(axis=1))
        if rows.size == 0:
            continue
        tables = np.zeros((rows.size, 1), dtype=dtype)
        for coef in coefs[rows, s : s + low].T:  # the chunk's slots, lowest digit first
            steps = coef.astype(dtype)[:, None] * digit
            tables = (steps[:, :, None] + tables[:, None, :]).reshape(rows.size, -1)
        out.append((c, rows, tables))
    return out


def _search_plan(spec: SearchSpec) -> tuple[CutPlan, np.ndarray | None, bool]:
    """The cut_plan of the groups, and two values fixed for all its cuts:
    the gfp.rank_table of a cut's block, when gfp affords one for every
    graph the search may examine, else None; and whether a part's index
    fits int64. A part is the whole block when there is a table, else a row."""
    p = spec.p
    plan = cut_plan(spec.n, tuple(tuple(grp) for grp in spec.groups), spec.n // spec.group_size // 2)
    rows, width = plan.rows, plan.width
    graphs = spec.base**spec.edge_slots if spec.mode == "exhaustive" else spec.samples
    table = gfp.rank_table(p, rows, width) if gfp._affords(p ** (rows * width), graphs) else None
    return plan, table, p ** (rows * width if table is not None else width) <= 1 << 62


def _cut_coefs(spec: SearchSpec, plan: CutPlan, table: np.ndarray | None, cuts) -> np.ndarray:
    """The (parts, E) int64 dense rows of the parts of `cuts`, cut by cut
    and in order, from their edge slots in plan.cols: slot k of a part
    packs into its index as p^k."""
    cols = plan.cols[cuts].reshape(-1, plan.cols.shape[1] if table is not None else plan.width)
    coefs = np.zeros((len(cols), spec.edge_slots), dtype=np.int64)
    coefs[np.arange(len(cols))[:, None], cols] = spec.p ** np.arange(cols.shape[1])
    return coefs


def _chunk_ids(weights: np.ndarray, spec: SearchSpec, low: int) -> np.ndarray:
    """ids[c, b]: word b's id over chunk c, its edge slots c * low onwards
    (the last chunk may be shorter) read as a little-endian base-`base`
    number. At base 2 the words are packed once into little-endian bits,
    word b from bit b * E on, so words b = 8q + r start q * E bytes apart:
    per r and chunk, a strided little-endian uint32 view, shifted and
    masked. At a larger base one float64 product packs every chunk, exact
    since each id is below max(base, _LOW_IDS), on blocks of about _CHUNK
    weights, which bounds its float64 copy of them."""
    count, edges = weights.shape
    ids = np.empty((-(-edges // low), count), dtype=np.intp)
    if spec.base == 2:
        bits = np.zeros(-(-count * edges // 8) + 4, dtype=np.uint8)  # 4 bytes past the last bit
        bits[: len(bits) - 4] = np.packbits(weights.ravel(), bitorder="little")
        for r in range(min(8, count)):
            for c in range(len(ids)):
                start = r * edges + c * low  # word r's first bit of chunk c
                view = np.ndarray(len(range(r, count, 8)), "<u4", bits, start // 8, (edges,))
                ids[c, r::8] = (view >> start % 8) & (1 << min(low, edges - c * low)) - 1
        return ids
    slots = np.arange(edges)
    powers = np.zeros((edges, len(ids)))
    powers[slots, slots // low] = float(spec.base) ** (slots % low)
    rows = _CHUNK // edges
    for start in range(0, len(weights), rows):
        ids[:, start : start + rows] = (weights[start : start + rows] @ powers).T
    return ids


def _part_index(chunks: list[tuple[int, np.ndarray, np.ndarray]], ids: np.ndarray,
                parts: int) -> np.ndarray:
    """(parts, words): each part's index for each word, its chunk tables
    summed at the word's chunk ids, in the tables' dtype (int64 when there
    are none)."""
    index = np.zeros((parts, ids.shape[1]), dtype=chunks[0][2].dtype if chunks else np.int64)
    for c, rows, tables in chunks:
        if rows.size == parts:
            index += tables.take(ids[c], axis=1)
        else:
            index[rows] += tables.take(ids[c], axis=1)
    return index


def _predicate_mask(weights: np.ndarray, spec: SearchSpec, chunks: dict, cuts=None) -> np.ndarray:
    """Boolean mask of rows of `weights` whose graphs pass each of `cuts`
    (cut indices of _search_plan's plan, by default all in order).

    Where a part's index fits int64, each word is packed once into its
    chunk ids of _low_slots edge slots each, and a cut's part indices are
    sums of its chunk tables at those ids, looked up in the table (the sum
    of the cut's chunk lookups) or ranked by gfp.rank_rows; else
    gfp.rank_stack ranks the cut's blocks of the surviving words, and no
    ids are built. Each cut compacts its survivors once: one index array,
    taken from the chunk ids and from the words' rows. A cut's chunk
    tables, all its parts in one _chunk_tables call, are built when a batch
    first reaches it and kept in `chunks`, keyed by cut index, for the
    caller's later batches."""
    plan, table, fits = _search_plan(spec)
    low = _low_slots(spec)
    ids = _chunk_ids(weights, spec, low) if fits else None
    pos = np.arange(weights.shape[0])  # each survivor's row of `weights`
    for c in range(len(plan.cuts)) if cuts is None else cuts:
        if not fits:
            blocks = weights[pos][:, plan.cols[c]].reshape(-1, plan.rows, plan.width)
            ranks = gfp.rank_stack(blocks, spec.p)
        else:
            if c not in chunks:
                chunks[c] = _chunk_tables(_cut_coefs(spec, plan, table, [c]), low, spec.base)
            if table is not None:  # one part: its chunk lookups summed in place
                (k, _, tables), *rest = chunks[c]
                index = tables[0].take(ids[k])
                for k, _, tables in rest:
                    index += tables[0].take(ids[k])
                ranks = table.take(index)
            else:
                ranks = gfp.rank_rows(_part_index(chunks[c], ids, plan.rows), spec.p, plan.width)
        kept = (ranks == plan.rows).nonzero()[0]
        pos = pos.take(kept)
        if fits:
            ids = ids.take(kept, axis=1)
        if pos.size == 0:
            break
    mask = np.zeros(weights.shape[0], dtype=bool)
    mask[pos] = True
    return mask


def _low_slots(spec: SearchSpec) -> int:
    """Edge slots in a block's low part: as many as keep base^low within
    _LOW_IDS, at least one, at most all."""
    low = 1
    while low < spec.edge_slots and spec.base ** (low + 1) <= _LOW_IDS:
        low += 1
    return low


def _first_nonzero_not_one(part: np.ndarray) -> np.ndarray:
    """Per row of `part`: it has a nonzero entry and the first is not 1."""
    if part.shape[1] == 0:
        return np.zeros(part.shape[0], dtype=bool)
    nz = part != 0
    return nz.any(axis=1) & (part[np.arange(len(part)), nz.argmax(axis=1)] != 1)


class _BlockScan:
    """What the exhaustive scan looks up per block of `size` ids: the
    digits of every low id (`low_digits`, (size, low) in the spec's
    word_dtype); the cut plan, its `table`, whether a part's index `fits`
    int64 and the cut indices in scan `order`, the first cut first; when
    a part fits, the parts of each cut in that order, cut c's m parts
    being parts c * m to c * m + m - 1, with a row each of A
    (`low_index`, in the dtype of _chunk_tables, which holds a part's
    whole index) and their other chunk tables (`cut_chunks`, as
    _chunk_tables gives them), which sum to B; under rescale at p > 2,
    per vertex, its row's high slots (`row_high`) and whether the row's
    low part is zero (`row_zero`), and whether some row's low part leads
    with a weight other than 1 (`static`); and, under prune_canonical, per adjacent swap k of
    graph._swap_keys, the chunk tables of the int64 linear form (key_0 -
    key_k) . word: its chunk-0 table as row k - 1 of `swaps`, and its other
    chunk tables as part k - 1 of `swap_chunks`.

    Every cut part is built in one _chunk_tables call, in scan order, and
    every swap form in a second. The scan owns `arrays`, all read-only, of
    `nbytes` in all; _block_scan caches it per spec."""

    def __init__(self, spec: SearchSpec):
        n = spec.n
        self.low = low = _low_slots(spec)
        self.size = spec.base**low
        self.low_digits = gfp.digits(np.arange(self.size), spec.base, low, spec.word_dtype)
        self.plan, self.table, self.fits = _search_plan(spec)
        # first the cut with the fewest high slots: its offset then takes
        # the fewest values, so its survivors repeat the most
        first = int(np.argmin(np.count_nonzero(self.plan.cols >= low, axis=1)))
        self.order = [first, *(c for c in range(len(self.plan.cuts)) if c != first)]
        self.low_index, self.cut_chunks = None, []
        if self.fits:
            coefs = _cut_coefs(spec, self.plan, self.table, self.order)
            chunks = _chunk_tables(coefs, low, spec.base)
            # A in the tables' dtype, which holds a part's whole index, so
            # A + B cannot wrap; uint16 at n=7 p=2 keeps that scan cached
            self.low_index, self.cut_chunks = _split_low(chunks, len(coefs), self.size,
                                                         chunks[0][2].dtype)

        self.row_high, self.row_zero, self.static = [], None, None
        if spec.prune_rescale and spec.p > 2:
            slot = slot_matrix(n)
            rows = [np.delete(slot[v], v) for v in range(n)]  # slots ascend with the neighbour
            self.row_high = [r[r >= low] - low for r in rows]
            low_parts = [self.low_digits[:, r[r < low]] for r in rows]
            self.row_zero = np.stack([~part.any(axis=1) for part in low_parts])
            self.static = np.logical_or.reduce([_first_nonzero_not_one(part) for part in low_parts])
        self.swaps, self.swap_chunks = None, []
        if spec.prune_canonical:
            # swap k makes a word smaller iff (key_0 - key_k) . word > 0; at
            # any part of a word that form lies in (-base^E, base^E), and the
            # scan's int64 ids bound base^E by 2^63
            keys = _swap_keys(n // spec.group_size, spec.group_size, spec.base, np.int64).T
            chunks = _chunk_tables(keys[0] - keys[1:], low, spec.base, np.int64)
            self.swaps, self.swap_chunks = _split_low(chunks, n - 1, self.size, np.int64)

        owned = [self.low_digits, self.low_index, self.row_zero, self.static, self.swaps,
                 *self.row_high, *(tables for _, _, tables in self.cut_chunks + self.swap_chunks)]
        self.arrays = [a for a in owned if a is not None]
        for a in self.arrays:
            a.setflags(write=False)
        self.nbytes = sum(a.nbytes for a in self.arrays)


def _split_low(chunks: list[tuple[int, np.ndarray, np.ndarray]], parts: int, size: int,
               dtype) -> tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Chunk 0's tables of _chunk_tables as one (parts, size) array of
    `dtype`, zero for the parts with no slot there, and the other chunks."""
    low = np.zeros((parts, size), dtype=dtype)
    if chunks and chunks[0][0] == 0:
        (_, rows, tables), *chunks = chunks
        low[rows] = tables
    return low, chunks


# per-spec _BlockScans, least recently used first; their nbytes sum to at
# most gfp._TABLE_CAP
_SCANS: dict[tuple, _BlockScan] = {}


def _block_scan(spec: SearchSpec) -> _BlockScan:
    """The spec's _BlockScan, taken from _SCANS, keyed by every value the
    build reads, or built and kept there when it fits the byte bound, the
    least recently used scans making room. A scan larger than the bound
    serves its own call and evicts nothing."""
    _, table, fits = _search_plan(spec)
    key = (spec.n, spec.p, spec.group_size, spec.base, spec.prune_rescale and spec.p > 2,
           spec.prune_canonical, _low_slots(spec), table is not None, fits)
    scan = _SCANS.pop(key, None)
    if scan is None:
        scan = _BlockScan(spec)
    if scan.nbytes <= gfp._TABLE_CAP:
        while sum(kept.nbytes for kept in _SCANS.values()) + scan.nbytes > gfp._TABLE_CAP:
            del _SCANS[next(iter(_SCANS))]
        _SCANS[key] = scan
    return scan


def _row_keys(his: np.ndarray, spec: SearchSpec, scan: _BlockScan) -> list[int]:
    """Per block hi in `his`: bit v set when vertex v's high part leads
    with a weight other than 1, so rescale prunes the row wherever its low
    part is zero."""
    high = gfp.digits(his, spec.base, spec.edge_slots - scan.low, spec.word_dtype)
    keys = np.zeros(len(his), dtype=np.int64)
    for v, r in enumerate(scan.row_high):
        keys |= _first_nonzero_not_one(high[:, r]).astype(np.int64) << v
    return keys.tolist()


def _row_survivors(key: int, scan: _BlockScan) -> np.ndarray:
    """Low ids that the rescale layer keeps in a block with this row key."""
    mask = scan.static.copy()
    for v, zero in enumerate(scan.row_zero):
        if key >> v & 1:
            mask |= zero
    return np.flatnonzero(~mask)


def _scan_blocks(spec: SearchSpec, scan: _BlockScan) -> tuple[np.ndarray, int, int]:
    """Scan every block in order, block hi holding the ids hi * size + lo;
    returns (witness ids in ascending order, examined, pruned).

    Without the canonical layer, what a block keeps up to its first cut
    depends only on its row key and its first cut's offset, so the
    survivors of the first cut are kept for the next block with both.
    With it, a block drops the ids that an adjacent swap makes smaller,
    those where the swap's low table exceeds minus the swap's offset, and
    expands digits only for the rest, which graph.is_minimal_word decides.
    `scan` is the spec's _block_scan."""
    wit = [np.empty(0, dtype=np.int64)]
    examined = 0
    pruned_total = 0
    every = np.arange(scan.size)
    plan, table = scan.plan, scan.table
    reuse = scan.swaps is None and table is not None
    # (row key, first offset) -> (ids the prune layers keep, survivors of the first cut)
    starts: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
    blocks = spec.base**spec.edge_slots // scan.size
    for first in range(0, blocks, _BLOCK_BATCH):
        his = np.arange(first, min(first + _BLOCK_BATCH, blocks))
        # the chunk ids of each block's first id
        ids = gfp.digits(his * scan.size, scan.size, -(-spec.edge_slots // scan.low)).T
        nparts = 0 if scan.low_index is None else len(scan.low_index)
        offsets = _part_index(scan.cut_chunks, ids, nparts).T.tolist()
        keys = [0] * len(his) if scan.row_zero is None else _row_keys(his, spec, scan)
        swaps = ([None] * len(his) if scan.swaps is None
                 else -_part_index(scan.swap_chunks, ids, len(scan.swaps)).T)
        for hi, key, b, swap in zip(his.tolist(), keys, offsets, swaps):
            cached = starts.get((key, b[0])) if reuse else None
            if cached is not None:
                kept, alive = cached
            else:
                alive = every if scan.row_zero is None else _row_survivors(key, scan)
                if swap is not None:
                    low = scan.swaps if alive is every else scan.swaps[:, alive]
                    alive = alive[~(low > swap[:, None]).any(axis=0)]
                    words = _weights_from_ids(hi * scan.size + alive, spec, scan)
                    alive = alive[is_minimal_word(words, spec.base, spec.n // spec.group_size,
                                                  spec.group_size)]
                kept = alive.size
            examined += kept
            pruned_total += scan.size - kept
            if not scan.fits:  # the block's words, expanded once, ranked by gfp.rank_stack
                words = _weights_from_ids(hi * scan.size + alive, spec, scan)
                alive = alive.compress(_predicate_mask(words, spec, {}))
            for c in range(cached is not None, len(scan.order) if scan.fits else 0):
                if table is not None:  # table[A[lo] + B] as a lookup in the table shifted by B
                    a = scan.low_index[c]
                    ranks = table[b[c]:].take(a if alive is every else a.take(alive))
                else:
                    parts = range(c * plan.rows, (c + 1) * plan.rows)
                    rows = [scan.low_index[k].take(alive) + b[k] for k in parts]
                    ranks = gfp.rank_rows(rows, spec.p, plan.width)
                alive = alive.compress(ranks == plan.rows)
                if c == 0 and reuse and len(starts) < _REUSE_CAP:
                    starts[key, b[0]] = kept, alive
                if alive.size == 0:
                    break
            if alive.size:
                wit.append(hi * scan.size + alive)
    return np.concatenate(wit), examined, pruned_total


def _prune_mask(weights: np.ndarray, spec: SearchSpec) -> np.ndarray:
    """True where a pruning layer rejects the graph before the predicate."""
    n = spec.n
    slot = slot_matrix(n)
    pruned = np.zeros(weights.shape[0], dtype=bool)
    if spec.prune_rescale and spec.p > 2:
        # a graph is scale-normal when each vertex's first nonzero incident
        # weight (neighbors in ascending order) is 1; every rescaling orbit
        # contains exactly such representatives
        for v in range(n):
            pruned |= _first_nonzero_not_one(weights[:, np.delete(slot[v], v)])
    if spec.prune_canonical:
        # keep one graph per orbit of the relabelings that preserve the
        # groups (the predicate is invariant under exactly these): the one
        # whose edge word is already minimal
        pruned |= ~is_minimal_word(weights, spec.base, n // spec.group_size, spec.group_size)
    return pruned


def _weights_from_ids(ids: np.ndarray, spec: SearchSpec, scan: _BlockScan | None = None) -> np.ndarray:
    """The edge words of scan ids, their gfp.digits in base `base`. With a
    scan, id hi * size + lo reads its low slots off the scan's digit table
    at lo, and only hi is expanded."""
    if scan is None:
        return gfp.digits(ids, spec.base, spec.edge_slots, spec.word_dtype)
    hi, lo = np.divmod(ids, scan.size)
    words = np.empty((len(lo), spec.edge_slots), dtype=spec.word_dtype)
    words[:, : scan.low] = scan.low_digits.take(lo, axis=0)
    words[:, scan.low :] = gfp.digits(hi, spec.base, spec.edge_slots - scan.low, spec.word_dtype)
    return words


def _dedupe_canonical(graphs: list[Graph], group_size: int = 1) -> list[Graph]:
    """Scalar reference dedupe: one canonical_form_grouped call per graph."""
    seen: dict[bytes, Graph] = {}
    for g in graphs:
        cf = canonical_form_grouped(g, group_size)
        seen.setdefault(cf.adj.tobytes(), cf)
    return [seen[k] for k in sorted(seen)]


def _canonical_classes(ids: np.ndarray, spec: SearchSpec, scan: _BlockScan) -> list[Graph]:
    """One canonical Graph per relabeling class of the raw witnesses with
    these ids, in the order of _dedupe_canonical: the minimal ones, or under
    rescale their deduped canonical forms. Ids become words _CHUNK at a
    time through the digit table of `scan`, the spec's _block_scan, and
    the words are sorted before they become Graphs."""
    if len(ids) == 0:
        return []
    gcount, gsize = spec.n // spec.group_size, spec.group_size
    rescale = spec.prune_rescale and spec.p > 2
    kept = []
    for start in range(0, len(ids), _CHUNK):
        words = _weights_from_ids(ids[start : start + _CHUNK], spec, scan)
        if not rescale:
            kept.append(words[is_minimal_word(words, spec.base, gcount, gsize)])
            continue
        canon = np.zeros(len(words), dtype=np.int64)  # their scan ids, without an int64 copy of words
        for digit in canonical_words(words, spec.base, gcount, gsize).T[::-1]:
            canon = canon * spec.base + digit
        kept.append(canon)
    if rescale:
        words = _weights_from_ids(np.unique(np.concatenate(kept)), spec, scan)
    else:
        words = np.concatenate(kept)
    # Graph.adj.tobytes() order: slot by slot, each weight as the bytes of a
    # little-endian int64, which is the order of the byte-swapped values
    order = np.lexsort(words.astype("<u8").byteswap().T[::-1])
    return graphs_from_words(spec.p, spec.n, words[order])


def enumerate_graphs(spec: SearchSpec) -> SearchResult:
    """Exhaustive scan of every weight assignment, deterministic witnesses.

    The witness list is the canonical forms of all passing graphs,
    deduplicated.
    """
    t0 = time.perf_counter()
    total = spec.base**spec.edge_slots
    if total > spec.budget:
        raise BudgetExceededError(f"{total} graphs exceed the budget of {spec.budget}")
    if total > 1 << 63:
        raise BudgetExceededError(f"{total} graphs exceed the scan's int64 ids")
    check_relabelings(spec.n // spec.group_size, spec.group_size)  # refuse before scanning, not after
    scan = _block_scan(spec)  # one scan for both steps, kept by the cache or not
    ids, examined, pruned = _scan_blocks(spec, scan)
    witnesses = _canonical_classes(ids, spec, scan)
    elapsed = time.perf_counter() - t0
    return SearchResult(witnesses, examined, pruned, elapsed, True)


def _integers(rng: np.random.Generator, low: int, high: int, shape: tuple[int, int],
              dtype: np.dtype) -> np.ndarray:
    """rng.integers(low, high, size=shape, dtype=dtype), bit for bit, bit
    generator state included, for the PCG64 generator of
    np.random.default_rng, the only one the search passes (no other is
    supported). A two-valued draw (dtype is uint8 for every such range
    here) is read off 32-bit words: numpy takes a uint8 draw's bytes lowest
    first from fresh words and maps each by Lemire's method, which for a
    range of 2 is the byte's top bit and never rejects; the bytes left in
    the last word are dropped. PCG64 makes 32-bit words from the halves
    of a 64-bit output, low first, buffering the high half in its state
    (has_uint32, uinteger): so the words are a buffered half, if any, then
    random_raw outputs as little-endian halves, and the state is set as
    the 32-bit draws would leave it."""
    if high - low != 2:
        return rng.integers(low, high, size=shape, dtype=dtype)
    size = shape[0] * shape[1]
    gen = rng.bit_generator
    state = gen.state
    held = bool(state["has_uint32"]) and size > 0
    fresh = -(-size // 4) - held  # words past the buffered half
    raw = gen.random_raw(-(-fresh // 2))
    words = raw.astype("<u8", copy=False).view("<u4")
    if held:
        words = np.insert(words, 0, state["uinteger"])
    if size:
        state = gen.state
        state["has_uint32"] = fresh % 2
        if raw.size:
            state["uinteger"] = int(raw[-1]) >> 32
        gen.state = state
    out = words.view(np.uint8)
    out >>= 7  # in place: no second buffer
    if low:
        out += np.uint8(low)
    return out[:size].reshape(shape)


def _random_weights(rng: np.random.Generator, count: int, spec: SearchSpec) -> np.ndarray:
    shape, dtype = (count, spec.edge_slots), spec.word_dtype
    if spec.weights_one:
        return _integers(rng, 0, 2, shape, dtype)
    if spec.dense_bias:
        w = _integers(rng, 1, spec.p, shape, dtype)
        w[rng.random(shape) < 1.0 / (2 * spec.p)] = 0
        return w
    return _integers(rng, 0, spec.p, shape, dtype)


def random_search(spec: SearchSpec) -> SearchResult:
    """Sample graphs until the predicate passes or the budget runs out.

    Stops at the first witness; reproducible for a fixed seed.
    """
    t0 = time.perf_counter()
    chunks = {}  # the chunk tables of each cut a batch has reached
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
        if pruned.any():
            mask = np.zeros(count, dtype=bool)
            mask[keep] = _predicate_mask(weights[keep], spec, chunks)
        else:  # no copy of the batch
            mask = _predicate_mask(weights, spec, chunks)
        if mask.any():
            first = int(mask.argmax())
            examined += int(keep[: first + 1].sum())
            pruned_total += int(pruned[: first + 1].sum())
            g = graph_from_word(spec.p, spec.n, weights[first])
            cf = canonical_form_grouped(g, spec.group_size)
            return SearchResult([cf], examined, pruned_total, time.perf_counter() - t0, False)
        examined += int(keep.sum())
        pruned_total += int(pruned.sum())
    elapsed = time.perf_counter() - t0
    return SearchResult([], examined, pruned_total, elapsed, False)


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
    # by scalar cut_edits: independent of cut_plan and gfp's batched ranks
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
    return SearchResult(witnesses, examined, pruned_total, time.perf_counter() - t0, True)
