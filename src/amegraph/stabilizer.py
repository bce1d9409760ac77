"""Stabilizer generator matrices over Z_p and their graph-state reduction.

A generator matrix is the k x 2n block matrix (X | Z) of Pauli exponent
vectors. Local Clifford transformations act as M -> U M Y with U an
invertible row mix and Y a per-qudit block-diagonal matrix of 2x2
determinant-1 blocks; every full stabilizer matrix reduces to graph
form (I | A) by such steps, which to_graph finds in two row reductions.
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
    return swap_y(p, n, [])


def swap_y(p: int, n: int, qudits) -> LocalCliffordY:
    """Y that exchanges the X and Z columns (with a sign) on `qudits`."""
    s = np.zeros(n, dtype=np.int64)
    s[list(qudits)] = 1  # quadruple (0, 1, -1, 0) there, (1, 0, 0, 1) elsewhere
    return LocalCliffordY(p, 1 - s, s, (p - 1) * s, 1 - s)


def diag_clear_y(p: int, diag) -> LocalCliffordY:
    """Y with quadruples (1, -d_i, 0, 1): subtracts d_i from Z_ii when X = I."""
    d = gfp.as_residues(diag, p)
    return LocalCliffordY(p, np.ones_like(d), (-d) % p, np.zeros_like(d), np.ones_like(d))


def from_graph(g: Graph) -> GeneratorMatrix:
    """(I | A): generator i is X on vertex i and Z^w on each neighbor."""
    return GeneratorMatrix(g.p, np.eye(g.n, dtype=np.int64), g.adj)


def symplectic_products(m: GeneratorMatrix) -> np.ndarray:
    """Pairwise a_i . b_j - b_i . a_j mod p; zero iff the group is abelian."""
    return (m.x @ m.z.T - m.z @ m.x.T) % m.p


def _valid_pivots(m: GeneratorMatrix) -> list[int] | None:
    """Pivot columns of (X | Z), from one row reduction, when its rows are
    independent and mutually commuting; else None. Those below n are X's."""
    pivots = gfp.row_reduce(np.hstack([m.x, m.z]), m.p)[1]
    return pivots if 0 < len(pivots) == m.k and not symplectic_products(m).any() else None


def is_valid(m: GeneratorMatrix) -> bool:
    """Rows independent as length-2n vectors and mutually commuting."""
    return _valid_pivots(m) is not None


def _act(x: np.ndarray, z: np.ndarray, y: LocalCliffordY, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(X | Z) Y: qudit i's column pair (X_i, Z_i) becomes
    (e_i X_i + e'_i Z_i, f_i X_i + f'_i Z_i)."""
    return (x * y.e + z * y.ep) % p, (x * y.f + z * y.fp) % p


def apply_local_clifford(m: GeneratorMatrix, u: np.ndarray, y: LocalCliffordY) -> GeneratorMatrix:
    """U M Y with Y acting per qudit on the (X_i, Z_i) column pair."""
    u = gfp.as_residues(u, m.p)
    if u.shape != (m.k, m.k):
        raise SingularUError("U must be k x k")
    if gfp.mat_rank(u, m.p) != m.k:
        raise SingularUError("U must be invertible")
    if y.p != m.p or y.n != m.n:
        raise InvalidYError("Y does not match the generator matrix")
    new_x, new_z = _act(m.x, m.z, y, m.p)
    return GeneratorMatrix(m.p, (u @ new_x) % m.p, (u @ new_z) % m.p)


def to_graph(m: GeneratorMatrix) -> tuple[Graph, list[tuple[np.ndarray, LocalCliffordY]]]:
    """Reduce a full stabilizer matrix to graph form (I | A) in two row
    reductions. The first, of (X | Z), decides validity; its pivots below
    n are X's.

    Steps: (1) swap X/Z columns on the qudits where X lacks a pivot, which
    makes it invertible; (2) left-multiply by its inverse u: the second
    reduction, of (X | Z | I), gives (I | u Z | u); (3) clear the Z
    diagonal per qudit. Returns the graph and the transcript of (U, Y)
    steps that were actually applied, in order.
    """
    if m.k != m.n:
        raise InvalidGeneratorError("need a full stabilizer (k = n)")
    pivots = _valid_pivots(m)
    if pivots is None:
        raise InvalidGeneratorError("rows must be independent and abelian")
    p, n = m.p, m.n
    transcript: list[tuple[np.ndarray, LocalCliffordY]] = []
    x, z = m.x, m.z

    missing = [c for c in range(n) if c not in pivots]
    if missing:
        y = swap_y(p, n, missing)
        x, z = _act(x, z, y, p)
        transcript.append((np.eye(n, dtype=np.int64), y))

    if (x != np.eye(n, dtype=np.int64)).any():
        red, inv_pivots = gfp.row_reduce(np.hstack([x, z, np.eye(n, dtype=np.int64)]), p)
        if inv_pivots != list(range(n)):  # theory rules this out
            raise RuntimeError("X block not invertible after swaps")
        x, z = red[:, :n], red[:, n:2 * n]
        transcript.append((red[:, 2 * n:], identity_y(p, n)))

    diag = np.diag(z)
    if diag.any():
        y = diag_clear_y(p, diag)
        x, z = _act(x, z, y, p)
        transcript.append((np.eye(n, dtype=np.int64), y))

    if (x != np.eye(n, dtype=np.int64)).any():
        raise RuntimeError("reduction failed to reach X = I")
    if (z != z.T).any() or np.diag(z).any():
        raise RuntimeError("reduced Z block is not a graph adjacency")
    return Graph(p, z), transcript


def format_generator_matrix(m: GeneratorMatrix) -> str:
    """Text format: `p k n` header, then k rows of 2n residues (X | Z)."""
    lines = [f"{m.p} {m.k} {m.n}"]
    for r in range(m.k):
        lines.append(" ".join(str(int(v)) for v in np.concatenate([m.x[r], m.z[r]])))
    return "\n".join(lines) + "\n"

