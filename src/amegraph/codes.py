"""Classical linear codes over Z_p and the code-to-AME-graph pipeline.

A code is stored by its n x k generator matrix G with codewords G x for
x in Z_p^k. Its codeword superposition is stabilized by [[G^T, 0], [0, H]],
which to_graph reduces to a graph state with rank G[A] + rank G[A'] - k
edits across each cut (A, A'). So an MDS code gives an AME state exactly
when k = floor(n/2) or ceil(n/2). The reduced graph's floor(n/2) cut
ranks are the AME gate for every n and k; min_distance enumerates the
p^k codewords and stays only as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp
from .entanglement import is_ame
from .graph import Graph
from .simulator import TooLargeError
from .stabilizer import GeneratorMatrix, to_graph


MAX_WORDS = 10**7  # codewords min_distance enumerates at most


class NotAmeCodeError(ValueError):
    pass


class LengthExceedsFieldError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class LinearCode:
    p: int
    gen: np.ndarray  # n x k, full column rank

    def __post_init__(self):
        gfp.ensure_prime(self.p)
        g = gfp.as_residues(self.gen, self.p)
        if g.ndim != 2:
            raise ValueError("generator must be 2-d")
        n, k = g.shape
        if k == 0 or k > n:
            raise ValueError("need 0 < k <= n")
        if gfp.mat_rank(g, self.p) != k:
            raise ValueError("generator columns must be independent")
        g.setflags(write=False)
        object.__setattr__(self, "gen", g)

    @property
    def n(self) -> int:
        return self.gen.shape[0]

    @property
    def k(self) -> int:
        return self.gen.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.p == other.p and self.gen.shape == other.gen.shape \
            and bool((self.gen == other.gen).all())

    def __hash__(self) -> int:
        return hash((self.p, self.gen.tobytes()))


def parity_check(c: LinearCode) -> np.ndarray:
    """(n - k) x n matrix H of full row rank with H G = 0 mod p.

    Returned in reduced row echelon form, the canonical basis of the
    kernel of G^T.
    """
    basis = gfp.kernel_basis(c.gen.T, c.p)
    return gfp.row_reduce(basis, c.p)[0]


def message_words(p: int, k: int) -> np.ndarray:
    """All p^k message vectors as a (p^k, k) array, index little-endian."""
    return gfp.digits(np.arange(p**k), p, k)


def min_distance(c: LinearCode) -> int:
    """Minimum Hamming weight over nonzero codewords (equals the distance)."""
    total = c.p**c.k
    if total > MAX_WORDS:
        raise TooLargeError(f"{total} codewords exceed the enumeration cap")
    best = c.n
    chunk = 1 << 16
    for lo in range(1, total, chunk):
        msgs = gfp.digits(np.arange(lo, min(lo + chunk, total)), c.p, c.k)
        words = (msgs @ c.gen.T) % c.p
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def is_mds(c: LinearCode) -> bool:
    """Singleton bound met with equality: distance = n - k + 1."""
    return min_distance(c) == c.n - c.k + 1


def grs_code(p: int, n: int, k: int) -> LinearCode:
    """Polynomial-evaluation (generalized Reed-Solomon) code, MDS for
    n <= p + 1.

    Row i of the generator is (x_i^0, ..., x_i^(k-1)) at evaluation point
    x_i; distinct points make every k x k minor a Vandermonde determinant.
    The points are 0, 1, ..., n - 1, and n = p + 1 adds the point at
    infinity, the row (0, ..., 0, 1) of the leading coefficient: the
    doubly extended Reed-Solomon code, still MDS.
    """
    gfp.ensure_prime(p)
    if n > p + 1:
        raise LengthExceedsFieldError(f"need n <= {p + 1} for {n} distinct points")
    gen = np.zeros((n, k), dtype=np.int64)
    for x in range(min(n, p)):
        gen[x] = [pow(x, j, p) for j in range(k)]
    if n > p and k:
        gen[p, k - 1] = 1  # the point at infinity
    return LinearCode(p, gen)


def hamming433() -> LinearCode:
    """The ternary [4,2,3] Hamming code; self-dual, H = G^T."""
    return LinearCode(3, np.array([[1, 0], [0, 1], [1, 1], [2, 1]]))


def certified(c: LinearCode) -> tuple[GeneratorMatrix, Graph]:
    """The codeword state's stabilizer matrix and its reduced graph, once
    the graph's floor(n/2) cuts all have full rank; NotAmeCodeError, naming
    the first failing cut 1-indexed, otherwise. This is the one AME gate
    for codes: call it once when both are needed."""
    fail = f"[{c.n},{c.k}]_{c.p} code state is not AME"
    if c.n < 2:
        raise NotAmeCodeError(f"{fail}: one qudit has no cut")
    h = parity_check(c)
    m = GeneratorMatrix(c.p, np.vstack([c.gen.T, 0 * h]), np.vstack([0 * c.gen.T, h]))
    g = to_graph(m)[0]
    report = is_ame(g)
    if report.is_ame:
        return m, g
    cut = report.witness
    shown = ",".join(str(v + 1) for v in cut)
    raise NotAmeCodeError(f"{fail}: cut {{{shown}}} has rank {report.cut_ranks[cut]} < {len(cut)}")


def ame_generator_matrix(c: LinearCode) -> GeneratorMatrix:
    """Stabilizer matrix [[G^T, 0], [0, H]] of the codeword superposition.

    X-type rows shift by codewords; Z-type rows phase by parity checks.
    Only defined when that state is AME (MDS with k = floor(n/2) or
    ceil(n/2)), which the cut ranks of the matrix's reduced graph decide
    without enumerating codewords.
    """
    return certified(c)[0]


def code_to_ame_graph(c: LinearCode) -> Graph:
    """Graph-state form of the code's AME stabilizer state."""
    return certified(c)[1]


def get_code(name: str) -> LinearCode:
    """Registry lookup: `hamming433` or `grs:p,n,k`."""
    if name == "hamming433":
        return hamming433()
    if name.startswith("grs:"):
        try:
            p, n, k = (int(v) for v in name[4:].split(","))
        except ValueError as exc:
            raise ValueError(f"bad GRS spec {name!r}; use grs:p,n,k") from exc
        return grs_code(p, n, k)
    raise ValueError(f"unknown code {name!r}")


def parse_code(text: str) -> LinearCode:
    """Text format: `p n k` header, then the k generator columns as rows."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or len(rows[0]) != 3:
        raise ValueError("header must be `p n k`")
    p, n, k = (int(v) for v in rows[0])
    gfp.ensure_prime(p)  # first, so that every entry reduced mod p fits int64
    if len(rows) != k + 1:
        raise ValueError(f"expected {k} generator columns")
    cols = []
    for parts in rows[1:]:
        if len(parts) != n:
            raise ValueError("each column needs n residues")
        cols.append([int(v) % p for v in parts])
    return LinearCode(p, np.array(cols, dtype=np.int64).T)
