"""Weighted graphs over Z_p, labeled graph states, and graph rewrites.

A Graph is (p, adjacency): a symmetric zero-diagonal matrix of edge
weights in [0, p), weight 0 meaning no edge. Vertices are 0-indexed in
the API; the text format and DOT export are 1-indexed.

Canonical labelling lives here alone. The canonical form is the
lexicographically smallest relabeling by the permutations that map
consecutive blocks of vertices onto blocks; canonical_words computes it
for a batch of edge words, is_minimal_word tells which words already are
minimal, and check_relabelings bounds both at 8! relabelings before any
is enumerated. is_minimal_word forms no canonical word: it asks whether
any relabeling's number lies below the identity's, relabelings along the
leading axis, and canonical_words is its test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gfp


class SelfLoopError(ValueError):
    pass


class DuplicateEdgeError(ValueError):
    pass


class WeightRangeError(ValueError):
    pass


class InvalidRewriteError(ValueError):
    pass


class GraphFormatError(ValueError):
    pass


def _checked_adjacency(p: int, adj, ndim: int) -> np.ndarray:
    """adj as int64, once it is an (..., n, n) stack of ndim axes that holds
    only valid adjacencies over Z_p; the one set of Graph checks."""
    gfp.ensure_prime(p)
    a = np.asarray(adj, dtype=np.int64)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError("adjacency must be square")
    if (a < 0).any() or (a >= p).any():
        raise WeightRangeError("weights must lie in [0, p)")
    if (a != a.swapaxes(-1, -2)).any():
        raise ValueError("adjacency must be symmetric")
    if np.diagonal(a, axis1=-2, axis2=-1).any():
        raise SelfLoopError("diagonal must be zero")
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    p: int
    adj: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(_checked_adjacency(self.p, self.adj, 2))
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def edges(self) -> list[tuple[int, int, int]]:
        """Nonzero edges (i, j, w) with i < j, ascending lexicographic."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                w = int(self.adj[i, j])
                if w:
                    out.append((i, j, w))
        return out

    def edge_count(self) -> int:
        return int(np.count_nonzero(np.triu(self.adj)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.p == other.p and self.adj.shape == other.adj.shape \
            and bool((self.adj == other.adj).all())

    def __hash__(self) -> int:
        return hash((self.p, self.adj.shape[0], self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(p={self.p}, n={self.n}, edges={self.edges()})"


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Graph plus a Z-power label vector, one residue per vertex."""

    graph: Graph
    label: np.ndarray

    def __post_init__(self):
        z = gfp.as_residues(self.label, self.graph.p)
        if z.shape != (self.graph.n,):
            raise ValueError("label length must equal vertex count")
        z.setflags(write=False)
        object.__setattr__(self, "label", z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.graph == other.graph and bool((self.label == other.label).all())

    def __hash__(self) -> int:
        return hash((self.graph, self.label.tobytes()))


def _unchecked_graph(p: int, adj: np.ndarray) -> Graph:
    """Graph around adj without Graph's checks: adj must be a read-only,
    contiguous int64 adjacency already known valid over Z_p, such as a
    principal submatrix or a relabeling of a checked one."""
    g = object.__new__(Graph)
    object.__setattr__(g, "p", p)
    object.__setattr__(g, "adj", adj)
    return g


def graph_from_edges(p: int, n: int, edges) -> Graph:
    """Build a graph from (i, j, w) triples; zero-weight edges are dropped.
    p is checked, and n bounded by the adjacency's bytes, before allocating."""
    gfp.ensure_prime(p)
    if n * n * 8 > gfp._TABLE_CAP:
        raise ValueError(f"{n} vertices need {n * n * 8} bytes of adjacency; at most {gfp._TABLE_CAP} allowed")
    a = np.zeros((n, n), dtype=np.int64)
    seen = set()
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex out of range in edge ({i}, {j})")
        if i == j:
            raise SelfLoopError(f"self loop at vertex {i}")
        if not (0 <= w < p):
            raise WeightRangeError(f"weight {w} outside [0, {p})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} given twice")
        seen.add(key)
        a[i, j] = a[j, i] = w
    return Graph(p, a)


def vertex_list(n: int, vertices) -> list:
    """`vertices` as a list, once each lies in [0, n) and none repeats: the
    one check of a cut or a measured set, O(|vertices|) in plain Python."""
    vertices = list(vertices)
    seen = set()
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} is not in [0, {n})")
        if v in seen:
            raise ValueError(f"vertex {v} is given twice")
        seen.add(v)
    return vertices


def truncate(g: Graph, cut) -> Graph:
    """Graph with the vertices in `cut` and their incident edges removed."""
    cut = set(vertex_list(g.n, cut))
    if len(cut) >= g.n and g.n > 0:
        raise ValueError("cannot truncate every vertex")
    keep = [u for u in range(g.n) if u not in cut]
    a = g.adj[np.ix_(keep, keep)]
    a.setflags(write=False)
    return _unchecked_graph(g.p, a)


def op_mult(g: Graph, v: int, b: int) -> Graph:
    """Rewrite that multiplies every edge weight at vertex v by b != 0."""
    b = int(b) % g.p
    if b == 0:
        raise InvalidRewriteError("scale factor must be nonzero")
    a = g.adj.copy()
    a[v, :] = (a[v, :] * b) % g.p
    a[:, v] = (a[:, v] * b) % g.p
    return Graph(g.p, a)


def op_star(g: Graph, v: int, a_coef: int) -> Graph:
    """Rewrite A_jk -> A_jk + a * A_vj * A_vk for j != k.

    The diagonal stays zero and row/column v are untouched because
    A_vv = 0; a = 0 is the identity.
    """
    a_coef = int(a_coef) % g.p
    row = g.adj[v]
    upd = (g.adj + a_coef * np.outer(row, row)) % g.p
    upd[np.diag_indices(g.n)] = 0
    return Graph(g.p, upd)


def z_measure_words(p: int, n: int, words, labels, cut, outcomes) -> tuple[np.ndarray, np.ndarray]:
    """Z-measure the vertices in `cut` of each labeled graph of the stack of
    edge words (..., C(n, 2)) and labels (..., n): the survivors' words and
    labels, each label the old one plus sum_i outcomes[i] * (row of cut[i]),
    mod p. Survivors keep their order; global phase is dropped."""
    cut = vertex_list(n, cut)
    out = gfp.as_residues(outcomes, p)
    if out.shape != (len(cut),):
        raise ValueError("one outcome per measured vertex required")
    keep = [u for u in range(n) if u not in set(cut)]
    words = np.asarray(words, dtype=np.int64)
    slot = slot_matrix(n)
    label = (np.asarray(labels)[..., keep] + out @ words[..., slot[cut][:, keep]]) % p
    return words[..., slot[keep][:, keep][_upper(len(keep))]], label


def z_measure_symbolic(s: LabeledGraph, cut, outcomes) -> LabeledGraph:
    """Post-measurement labeled graph after Z-measuring the vertices in `cut`:
    z_measure_words' one-row case, its graph truncate(s.graph, cut)."""
    g = s.graph
    label = z_measure_words(g.p, g.n, edge_word(g), s.label, cut, outcomes)[1]
    return LabeledGraph(truncate(g, cut), label)


def permute(g: Graph, perm) -> Graph:
    """Relabeled graph: new vertex i is old vertex perm[i]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertices")
    a = g.adj[np.ix_(perm, perm)]
    a.setflags(write=False)
    return _unchecked_graph(g.p, a)


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the edge slots, in `combinations(range(n), 2)` order."""
    return np.triu_indices(n, 1)


@lru_cache(maxsize=None)
def slot_matrix(n: int) -> np.ndarray:
    """n x n matrix whose (i, j) and (j, i) entries are the edge slot of
    {i, j} in an edge word; the diagonal is -1."""
    slot = np.full((n, n), -1, dtype=np.int64)
    i, j = _upper(n)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    slot.setflags(write=False)
    return slot


def edge_word(g: Graph) -> np.ndarray:
    """Edge word of g: its C(n, 2) upper-triangle weights, slot by slot."""
    return g.adj[_upper(g.n)]


def graphs_from_words(p: int, n: int, words) -> list[Graph]:
    """One Graph per edge word of `words` (a sequence of C(n, 2)-slot
    words), the inverse of edge_word row by row.

    The words are scattered into one (len(words), n, n) stack, which is
    checked once with Graph's checks (same exceptions, same messages) and
    made read-only; each graph's adjacency is a row of it, and no graph is
    checked again."""
    i, j = _upper(n)
    words = np.reshape(words, (len(words), len(i)))
    stack = np.zeros((len(words), n, n), dtype=np.int64)
    stack[:, i, j] = stack[:, j, i] = words
    stack = _checked_adjacency(p, stack, 3)
    stack.setflags(write=False)
    return [_unchecked_graph(p, a) for a in stack]


def graph_from_word(p: int, n: int, word) -> Graph:
    """Inverse of edge_word."""
    return graphs_from_words(p, n, [word])[0]


_RELABELINGS = 40320  # 8!: the most relabelings canonical labelling enumerates


def check_relabelings(gcount: int, gsize: int) -> None:
    """Refuse gcount blocks of gsize vertices when they have more than
    _RELABELINGS relabelings, gcount! * gsize!^gcount. The product stops
    once past the bound, gcount! first, so it forms no large number."""
    count = 1
    for factor in itertools.chain(range(2, gcount + 1), (k**gcount for k in range(2, gsize + 1))):
        count *= factor
        if count > _RELABELINGS:
            raise ValueError(f"canonical labelling enumerates at most {_RELABELINGS} relabelings; "
                             f"{gcount} blocks of size {gsize} have more")


@lru_cache(maxsize=8)
def _group_perms(gcount: int, gsize: int) -> np.ndarray:
    """Permutations that map consecutive size-gsize blocks onto blocks;
    gsize = 1 gives all gcount! permutations."""
    check_relabelings(gcount, gsize)
    sigma = np.array(list(itertools.permutations(range(gcount))), dtype=np.int64)
    taus = np.array(
        list(itertools.product(itertools.permutations(range(gsize)), repeat=gcount)), dtype=np.int64
    )
    # block t goes to block sigma[t], its members reordered by taus[t]
    perms = sigma[:, None, :, None] * gsize + taus[None]
    return perms.reshape(-1, gcount * gsize)


_EXACT = 1 << 53  # float64 holds every integer up to here
_BLOCK = 1 << 15  # entries of one (words x relabelings) id block


@lru_cache(maxsize=4)
def _relabelings(gcount: int, gsize: int, base: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Edge-slot gathers and per-limb power matrices of the relabelings in
    _group_perms.

    Row k of the gathers maps each new edge slot (i, j) to the old slot
    (perm[i], perm[j]), so word[gathers[k]] is the edge word of
    permute(g, perm_k) when word is the edge word of g. Limb t's matrix
    is (E, relabelings): word @ matrix is the big-endian number of digits
    t*L .. t*L + L - 1 of each relabeled word, L the most base-`base`
    digits whose number stays within 2^53. Row 0 of the gathers and
    column 0 of each limb are the identity, row 0 of _group_perms.
    """
    if base > _EXACT:
        raise ValueError("edge weights beyond 2^53 are not exact in float64")
    perms = _group_perms(gcount, gsize)
    n = gcount * gsize
    i, j = _upper(n)
    gathers = slot_matrix(n)[perms[:, i], perms[:, j]]
    slots = gathers.shape[1]
    digits = 1
    while base ** (digits + 1) <= _EXACT:
        digits += 1
    # place[k, s]: the new slot that relabeling k moves old slot s to
    place = np.argsort(gathers, axis=1)
    limb = place // digits
    end = np.minimum((limb + 1) * digits, slots)
    powers = np.array([base**e for e in range(digits)], dtype=np.float64)[end - 1 - place]
    limbs = [np.where(limb == t, powers, 0.0).T.copy() for t in range(-(-slots // digits))]
    return gathers, limbs


def canonical_words(words, base: int, gcount: int, gsize: int = 1) -> np.ndarray:
    """Each edge word's minimum over the relabelings that map the gcount
    consecutive blocks of gsize vertices onto blocks (all permutations
    when gsize = 1).

    For a symmetric zero-diagonal matrix the first row-major entry where
    two relabelings differ lies in the upper triangle, so the minimal
    adjacency is the one whose edge word, read as a big-endian base-`base`
    number, is smallest. A relabeling's number is one dot product of the
    word with a power vector, so a block of words is one matrix product
    and a row minimum. The float64 product is exact below 2^53; longer
    words are split into limbs of L digits with base^L <= 2^53, and the
    minimum is taken limb by limb among the relabelings still tied.
    """
    words = np.asarray(words)
    gathers, limbs = _relabelings(gcount, gsize, base)  # refuses past the bound, whatever the words
    if words.size == 0:
        return words.copy()
    out = np.empty_like(words)
    rows = max(1, _BLOCK // len(gathers))
    for lo in range(0, len(words), rows):
        block = words[lo : lo + rows]
        vals = block.astype(np.float64)
        tied = None
        for t, column_powers in enumerate(limbs):
            ids = vals @ column_powers
            if tied is not None:
                ids[~tied] = np.inf
            best = ids.argmin(axis=1)
            if t + 1 < len(limbs):
                tied = ids == ids[np.arange(len(ids)), best][:, None]
        out[lo : lo + rows] = np.take_along_axis(block, gathers[best], axis=1)
    return out


@lru_cache(maxsize=8)
def _swap_keys(gcount: int, gsize: int, base: int, dtype=np.float64) -> np.ndarray:
    """(E, n) matrix: word @ column 0 is the edge word read as a big-endian
    base-`base` number, and word @ column k that of the word relabeled by
    the k-th adjacent swap, which swaps vertices k - 1 and k when they
    share a block, else the block ending at k - 1 with the next. Exact
    while base^E <= 2^53 in float64, and base^E <= 2^63 in int64."""
    n = gcount * gsize
    perms = np.tile(np.arange(n), (n - 1, 1))
    for v, perm in enumerate(perms):
        if (v + 1) % gsize:  # v and v + 1 share a block: swap them
            perm[[v, v + 1]] = v + 1, v
        else:  # v ends a block: swap that block with the next
            first = v + 1 - gsize
            perm[first : first + 2 * gsize] = np.roll(perm[first : first + 2 * gsize], gsize)
    i, j = _upper(n)
    gathers = slot_matrix(n)[perms[:, i], perms[:, j]]
    big = np.array([base**e for e in range(len(i) - 1, -1, -1)], dtype=dtype)
    keys = np.zeros((len(i), n), dtype=dtype)
    keys[:, 0] = big
    for k, gather in enumerate(gathers, 1):
        keys[gather, k] = big  # the relabeled word holds word[gather[s]] at slot s
    keys.setflags(write=False)
    return keys


def _below_identity(ids: np.ndarray, tied: np.ndarray | None = None) -> np.ndarray:
    """Per column of the (relabelings, words) numbers `ids`, whose row 0 is
    the identity: whether some other row lies below row 0, among the rows
    still `tied` (all when None). One reduction over the leading axis."""
    below = ids[1:] < ids[0]
    if tied is not None:
        below &= tied
    return below.any(axis=0)


def _swap_smaller(words: np.ndarray, base: int, gcount: int, gsize: int = 1) -> np.ndarray:
    """True where one adjacent swap (_swap_keys) makes the edge word
    smaller, so that it is not the minimal word of its class: the
    relabeling-major test of is_minimal_word on the n - 1 swap keys."""
    return _below_identity(_swap_keys(gcount, gsize, base).T @ words.T)


def is_minimal_word(words, base: int, gcount: int, gsize: int = 1) -> np.ndarray:
    """True where canonical_words leaves the edge word unchanged, that is,
    where no relabeling of _group_perms makes its number smaller. The bound
    is checked before any word is read. A word that one adjacent swap makes
    smaller (_swap_smaller, exact while base^E <= 2^53; past that every
    word passes) is not minimal. For the others, a block's numbers are one
    (relabelings, words) product per limb of _relabelings, row 0 being the
    identity, and a word is minimal when no row lies below row 0; past
    2^53 the limbs are compared in turn among the rows still tied. No
    canonical word is formed. Each block's float64 numbers, and the swap
    test's copy of its words, hold at most _BLOCK numbers."""
    check_relabelings(gcount, gsize)
    words = np.asarray(words)
    gathers, limbs = _relabelings(gcount, gsize, base)  # refuses past 2^53, whatever the words
    alive = np.arange(len(words))
    if base ** words.shape[1] <= _EXACT:  # else every word goes to the full test
        rows = _BLOCK // max(words.shape[1], 1)
        smaller = np.zeros(len(words), dtype=bool)
        for lo in range(0, len(words), rows):
            smaller[lo : lo + rows] = _swap_smaller(words[lo : lo + rows], base, gcount, gsize)
        alive = alive[~smaller]
    out = np.zeros(len(words), dtype=bool)
    rows = max(1, _BLOCK // len(gathers))
    for lo in range(0, len(alive), rows):
        block = alive[lo : lo + rows]
        vals = words[block].T.astype(np.float64)
        smaller, tied = np.zeros(len(block), dtype=bool), None
        for t, column_powers in enumerate(limbs):
            ids = column_powers.T @ vals
            smaller |= _below_identity(ids, tied)
            if t + 1 < len(limbs):
                equal = ids[1:] == ids[0]
                tied = equal if tied is None else tied & equal
        out[block] = ~smaller
    return out


def canonical_form(g: Graph) -> Graph:
    """Lexicographically minimal relabeling, exact via all n! permutations."""
    return canonical_form_grouped(g, 1)


def canonical_form_grouped(g: Graph, group_size: int) -> Graph:
    """Minimal relabeling over permutations preserving the group partition.

    Groups are the consecutive blocks of `group_size` vertices; the
    grouped-AME property is invariant under exactly these relabelings.
    """
    if g.n % group_size:
        raise ValueError("group size must divide the vertex count")
    if g.n <= 1:
        return g
    word = canonical_words(edge_word(g)[None, :], g.p, g.n // group_size, group_size)[0]
    return graph_from_word(g.p, g.n, word)


@dataclass(frozen=True)
class CzCircuit:
    """Preparation circuit: all qudits in |0bar>, one CZ^w gate per edge."""

    p: int
    n: int
    gates: tuple[tuple[int, int, int], ...]


def circuit_from_graph(g: Graph) -> CzCircuit:
    return CzCircuit(g.p, g.n, tuple(g.edges()))


def format_circuit(c: CzCircuit) -> str:
    lines = ["PREP_ALL |0bar>"]
    lines += [f"CZ {i + 1} {j + 1} ^{w}" for i, j, w in c.gates]
    return "\n".join(lines) + "\n"


def format_graph(g: Graph) -> str:
    """Text format: `p n` header then one `i j w` line per edge, 1-indexed."""
    lines = [f"{g.p} {g.n}"]
    lines += [f"{i + 1} {j + 1} {w}" for i, j, w in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Inverse of format_graph; `#` comments and blank lines are ignored."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GraphFormatError("empty graph file")
    if len(rows[0]) != 2:
        raise GraphFormatError("header must be `p n`")
    try:
        p, n = int(rows[0][0]), int(rows[0][1])
        edges = []
        for parts in rows[1:]:
            if len(parts) != 3:
                raise GraphFormatError(f"bad edge line: {' '.join(parts)}")
            i, j, w = (int(x) for x in parts)
            edges.append((i - 1, j - 1, w))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    if n < 0:
        raise GraphFormatError("negative vertex count")
    return graph_from_edges(p, n, edges)


def format_graph_line(g: Graph) -> str:
    """One-line variant used for witness files: `p n i j w i j w ...`."""
    parts = [str(g.p), str(g.n)]
    for i, j, w in g.edges():
        parts += [str(i + 1), str(j + 1), str(w)]
    return " ".join(parts)


def load_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def to_dot(g: Graph) -> str:
    """DOT text with edge labels carrying the weights."""
    lines = ["graph G {"]
    lines += [f"  {v + 1};" for v in range(g.n)]
    lines += [f'  {i + 1} -- {j + 1} [label="{w}"];' for i, j, w in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
