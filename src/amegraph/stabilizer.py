"""Stabilizer generator matrices over Z_p and their graph-state reduction.

A generator matrix is the k x 2n block matrix (X | Z) of Pauli exponent
vectors. Local Clifford transformations act as M -> U M Y with U an
invertible row mix and Y a per-qudit block-diagonal matrix of 2x2
determinant-1 blocks; every full stabilizer matrix reduces to graph
form (I | A) by such steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfp
from .graph import Graph


class SingularUError(ValueError):
    pass


class InvalidYError(ValueError):
    pass


class InvalidGeneratorError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    p: int
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        gfp.ensure_prime(self.p)
        x = gfp.as_residues(self.x, self.p)
        z = gfp.as_residues(self.z, self.p)
        if x.ndim != 2 or x.shape != z.shape:
            raise ValueError("X and Z blocks must be 2-d with equal shapes")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def k(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratorMatrix):
            return NotImplemented
        return self.p == other.p and self.x.shape == other.x.shape \
            and bool((self.x == other.x).all()) and bool((self.z == other.z).all())

    def __hash__(self) -> int:
        return hash((self.p, self.x.tobytes(), self.z.tobytes()))


@dataclass(frozen=True)
class LocalCliffordY:
    """Per-qudit quadruples (e, f, e', f') with e f' - f e' = 1 mod p."""

    p: int
    e: np.ndarray
    f: np.ndarray
    ep: np.ndarray
    fp: np.ndarray

    def __post_init__(self):
        cols = []
        for name in ("e", "f", "ep", "fp"):
            v = gfp.as_residues(getattr(self, name), self.p)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            cols.append(v)
        e, f, ep, fp = cols
        if not (e.shape == f.shape == ep.shape == fp.shape) or e.ndim != 1:
            raise InvalidYError("quadruple vectors must be 1-d with equal length")
        det = (e * fp - f * ep) % self.p
        if (det != 1).any():
            raise InvalidYError("each per-qudit block must have determinant 1")

    @property
    def n(self) -> int:
        return self.e.shape[0]


def identity_y(p: int, n: int) -> LocalCliffordY:
    one = np.ones(n, dtype=np.int64)
    zero = np.zeros(n, dtype=np.int64)
    return LocalCliffordY(p, one, zero, zero, one)


def swap_y(p: int, n: int, qudits) -> LocalCliffordY:
    """Y that exchanges the X and Z columns (with a sign) on `qudits`."""
    e = np.ones(n, dtype=np.int64)
    f = np.zeros(n, dtype=np.int64)
    ep = np.zeros(n, dtype=np.int64)
    fp = np.ones(n, dtype=np.int64)
    for q in qudits:
        e[q], f[q], ep[q], fp[q] = 0, 1, (-1) % p, 0
    return LocalCliffordY(p, e, f, ep, fp)


def diag_clear_y(p: int, diag) -> LocalCliffordY:
    """Y with quadruples (1, -d_i, 0, 1): subtracts d_i from Z_ii when X = I."""
    d = gfp.as_residues(diag, p)
    n = d.shape[0]
    one = np.ones(n, dtype=np.int64)
    zero = np.zeros(n, dtype=np.int64)
    return LocalCliffordY(p, one, (-d) % p, zero, one)


def from_graph(g: Graph) -> GeneratorMatrix:
    """(I | A): generator i is X on vertex i and Z^w on each neighbor."""
    return GeneratorMatrix(g.p, np.eye(g.n, dtype=np.int64), g.adj)


def symplectic_products(m: GeneratorMatrix) -> np.ndarray:
    """Pairwise a_i . b_j - b_i . a_j mod p; zero iff the group is abelian."""
    return (m.x @ m.z.T - m.z @ m.x.T) % m.p


def is_valid(m: GeneratorMatrix) -> bool:
    """Rows independent as length-2n vectors and mutually commuting."""
    if m.k == 0:
        return False
    stacked = np.hstack([m.x, m.z])
    if gfp.mat_rank(stacked, m.p) != m.k:
        return False
    return not symplectic_products(m).any()


def apply_local_clifford(m: GeneratorMatrix, u: np.ndarray, y: LocalCliffordY) -> GeneratorMatrix:
    """U M Y with Y acting per qudit on the (X_i, Z_i) column pair."""
    u = gfp.as_residues(u, m.p)
    if u.shape != (m.k, m.k):
        raise SingularUError("U must be k x k")
    if gfp.mat_rank(u, m.p) != m.k:
        raise SingularUError("U must be invertible")
    if y.p != m.p or y.n != m.n:
        raise InvalidYError("Y does not match the generator matrix")
    new_x = (m.x * y.e[None, :] + m.z * y.ep[None, :]) % m.p
    new_z = (m.x * y.f[None, :] + m.z * y.fp[None, :]) % m.p
    return GeneratorMatrix(m.p, (u @ new_x) % m.p, (u @ new_z) % m.p)


def to_graph(m: GeneratorMatrix) -> tuple[Graph, list[tuple[np.ndarray, LocalCliffordY]]]:
    """Reduce a full stabilizer matrix to graph form (I | A).

    Steps: (1) swap X/Z columns on the qudits where the X block lacks a
    pivot, which makes it invertible; (2) left-multiply by its inverse;
    (3) clear the Z diagonal per qudit. Returns the graph and the
    transcript of (U, Y) steps that were actually applied, in order.
    """
    if m.k != m.n:
        raise InvalidGeneratorError("need a full stabilizer (k = n)")
    if not is_valid(m):
        raise InvalidGeneratorError("rows must be independent and abelian")
    p, n = m.p, m.n
    transcript: list[tuple[np.ndarray, LocalCliffordY]] = []
    cur = m

    _, pivots = gfp.row_reduce(cur.x, p)
    missing = [c for c in range(n) if c not in pivots]
    if missing:
        y = swap_y(p, n, missing)
        cur = apply_local_clifford(cur, np.eye(n, dtype=np.int64), y)
        transcript.append((np.eye(n, dtype=np.int64), y))

    if (cur.x != np.eye(n, dtype=np.int64)).any():
        try:
            u = gfp.mat_inverse(cur.x, p)
        except gfp.SingularMatrixError as exc:  # theory rules this out
            raise RuntimeError("X block not invertible after swaps") from exc
        cur = apply_local_clifford(cur, u, identity_y(p, n))
        transcript.append((u, identity_y(p, n)))

    diag = np.diag(cur.z).copy()
    if diag.any():
        y = diag_clear_y(p, diag)
        cur = apply_local_clifford(cur, np.eye(n, dtype=np.int64), y)
        transcript.append((np.eye(n, dtype=np.int64), y))

    if (cur.x != np.eye(n, dtype=np.int64)).any():
        raise RuntimeError("reduction failed to reach X = I")
    z = cur.z
    if (z != z.T).any() or np.diag(z).any():
        raise RuntimeError("reduced Z block is not a graph adjacency")
    return Graph(p, z), transcript


def format_generator_matrix(m: GeneratorMatrix) -> str:
    """Text format: `p k n` header, then k rows of 2n residues (X | Z)."""
    lines = [f"{m.p} {m.k} {m.n}"]
    for r in range(m.k):
        lines.append(" ".join(str(int(v)) for v in np.concatenate([m.x[r], m.z[r]])))
    return "\n".join(lines) + "\n"


def parse_generator_matrix(text: str) -> GeneratorMatrix:
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or len(rows[0]) != 3:
        raise InvalidGeneratorError("header must be `p k n`")
    p, k, n = (int(v) for v in rows[0])
    gfp.ensure_prime(p)  # first, so that every entry reduced mod p fits int64
    if len(rows) != k + 1:
        raise InvalidGeneratorError(f"expected {k} generator rows")
    mat = []
    for parts in rows[1:]:
        if len(parts) != 2 * n:
            raise InvalidGeneratorError("each row needs 2n residues")
        mat.append([int(v) % p for v in parts])
    arr = np.array(mat, dtype=np.int64).reshape(k, 2 * n)
    return GeneratorMatrix(p, arr[:, :n], arr[:, n:])
