"""Exact arithmetic and linear algebra over the prime field Z_p.

Everything in this package reduces to rank computations, inverses and
kernels of small integer matrices mod p; this module is that kernel.
Matrices are plain numpy integer arrays with entries in [0, p).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class NotPrimeError(ValueError):
    pass


class NotInvertibleError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def factorize(d: int) -> list[int]:
    """Prime factors of d with multiplicity, ascending, by trial division;
    fields here are desk-scale."""
    if d < 2:
        raise ValueError("need d >= 2")
    out = []
    q = 2
    while q * q <= d:
        while d % q == 0:
            out.append(q)
            d //= q
        q += 1
    if d > 1:
        out.append(d)
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and factorize(p) == [p]


def ensure_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrimeError(f"p = {p} is not prime")
    return p


def field_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p."""
    a = int(a) % p
    if a == 0:
        raise NotInvertibleError("0 has no inverse")
    return pow(a, -1, p)


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """inverse_table(p)[a] = a^-1 mod p; entry 0 is a placeholder 0."""
    return np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)


def as_residues(mat, p: int) -> np.ndarray:
    return np.asarray(mat, dtype=np.int64) % p


def digits(values, base: int, width: int, dtype=np.int64) -> np.ndarray:
    """Little-endian base-`base` digits: column i of the (..., width)
    result is the coefficient of base^i in each value, the simulator's
    amplitude-index convention. The inverse is
    digits @ base ** np.arange(width). Each digit column is written
    straight into `dtype`."""
    rest = np.asarray(values, dtype=np.int64)
    out = np.empty(rest.shape + (width,), dtype=dtype)
    for i in range(width):
        rest, out[..., i] = np.divmod(rest, base)
    return out


def _check_exact(p: int) -> None:
    """Elimination forms products of two residues; int64 holds them exactly
    only while (p - 1)^2 < 2^63."""
    if (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"p = {p} is too large for exact int64 elimination")


def row_reduce(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan reduction mod p with first-nonzero pivoting.

    Returns the reduced matrix and the list of pivot columns; pivoting is
    deterministic so ranks and kernels are reproducible.
    """
    _check_exact(p)
    a = as_residues(mat, p).copy()
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * field_inv(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= col[:, None] * a[r]  # every other row at once
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def mat_rank(mat, p: int) -> int:
    a = as_residues(mat, p)
    if a.size == 0:
        return 0
    return len(row_reduce(a, p)[1])


def mat_inverse(mat, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p, or SingularMatrixError."""
    a = as_residues(mat, p)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    red, pivots = row_reduce(aug, p)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError(f"rank {mat_rank(a, p)} < {n}")
    return red[:, n:]


def kernel_basis(mat, p: int) -> np.ndarray:
    """Rows form a basis of the null space {v : mat @ v = 0 mod p}.

    Shape is (cols - rank, cols); an empty basis has zero rows.
    """
    a = as_residues(mat, p)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    cols = a.shape[1]
    red, pivots = row_reduce(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for t, fcol in enumerate(free):
        basis[t, fcol] = 1
        for r, pcol in enumerate(pivots):
            basis[t, pcol] = (-red[r, fcol]) % p
    return basis


def rank_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of a stack of matrices, shape (B, r, c) -> (B,).

    Rank-only forward elimination, each step on the whole stack. A stack
    with more rows than columns is transposed first, since rank(A) =
    rank(A^T), so the loop runs over the shorter side. Step r takes each
    matrix's first nonzero entry of row r as its pivot and clears that
    column from the rows below r only: no row swaps, no back-substitution,
    and a zero row r changes nothing. Each row that had a pivot keeps it,
    and every later row is zero in its pivot column, so those rows are
    independent; the steps keep the row space, and the other rows end up
    zero. The rank is the number of nonzero rows left.

    Every intermediate is a residue, a product of two residues, or a
    residue minus such a product, so int16 is exact while (p - 1)^2 < 2^15
    (p <= 181) and int64 while (p - 1)^2 < 2^63; larger p is refused.
    Pivot inverses come from inverse_table on int16 and as piv^(p-2) on
    int64.
    """
    _check_exact(p)
    small = (p - 1) ** 2 < 1 << 15
    a = np.asarray(mats, dtype=np.int16 if small else np.int64)
    if a.ndim != 3:
        raise ValueError("expected a (B, r, c) stack")
    if a.shape[1] > a.shape[2]:
        a = a.transpose(0, 2, 1)
    a = np.remainder(a, p, order="C")
    each = np.arange(len(a))
    inv = inverse_table(p).astype(np.int16) if small else None
    for r in range(a.shape[1] - 1):
        row, below = a[:, r], a[:, r + 1:]
        col = (row != 0).argmax(axis=1)
        piv = row[each, col]  # 0 where row r is zero, and then nothing changes
        if small:
            pinv = inv[piv]
        else:  # square-and-multiply; a table would hold p entries
            pinv, e = np.ones_like(piv), p - 2
            while e:
                if e & 1:
                    pinv = pinv * piv % p
                piv, e = piv * piv % p, e >> 1
        factor = below[each, :, col] * pinv[:, None] % p
        below -= factor[:, :, None] * row[:, None, :]
        below %= p
    return a.any(axis=2).sum(axis=1)


def rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2) of bit-packed rows, by bitwise elimination."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            rank += 1
    return rank
