"""Exact arithmetic and linear algebra over the prime field Z_p.

Everything in this package reduces to rank computations, inverses and
kernels of small integer matrices mod p; this module is that kernel.
Matrices are plain numpy integer arrays; entries are reduced mod p on
input, so any integers are accepted.

Batched cut ranks go through one kernel, rank_rows on packed rows
(rank_stack packs a stack for it): rank tables built by row peeling, a
streaming peel where a table would be too large, and rank_batch
elimination where a peel table would be too, picked from p, shape and
stack size only (_affords).
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np


class NotPrimeError(ValueError):
    pass


class NotInvertibleError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def factorize(d: int) -> list[int]:
    """Prime factors of d with multiplicity, ascending, by trial division,
    which takes at most 2^20 steps for the d it accepts: 2 <= d < 2^40."""
    if d < 2:
        raise ValueError("need d >= 2")
    if d >= 1 << 40:
        raise ValueError(f"d = {d} is not below 2^40, the bound of trial division")
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


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Decided once per p: every Graph, SearchSpec, StateVector and
    LinearCode checks its p, and trial division takes sqrt(p) steps."""
    return p >= 2 and factorize(p) == [p]


def ensure_prime(p: int) -> int:
    if p >= 2:  # every exact path refuses a larger p; is_prime takes sqrt(p) steps
        _check_exact(p)
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
    """Gauss-Jordan reduction mod p with first-nonzero pivoting, in place on
    one int64 copy of `mat`: per pivot, two row assignments and one
    broadcast outer product. The batched kernel's scalar oracle.

    Returns the reduced matrix and the list of pivot columns; pivoting is
    deterministic so ranks and kernels are reproducible.
    """
    _check_exact(p)
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    a %= p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        inv = field_inv(int(a[k, c]), p)
        row = a[k].copy() if inv == 1 else a[k] * inv % p  # every pivot is 1 at p = 2
        if k != r:
            a[k] = a[r]
        a -= a[:, c, None] * row  # row r too; it is rewritten below
        a %= p
        a[r] = row
        pivots.append(c)
        r += 1
    return a, pivots


def mat_rank(mat, p: int) -> int:
    a = np.asarray(mat)
    return len(row_reduce(a, p)[1]) if a.size else 0


def mat_inverse(mat, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p, or SingularMatrixError."""
    a = as_residues(mat, p)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    red, pivots = row_reduce(aug, p)
    if pivots[:n] != list(range(n)):  # pivots below n are a's own
        raise SingularMatrixError(f"rank {sum(c < n for c in pivots)} < {n}")
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

    Entries are reduced mod p first. Every intermediate is a residue, a
    product of two residues, or a residue minus such a product, so int16
    is exact while (p - 1)^2 < 2^15
    (p <= 181) and int64 while (p - 1)^2 < 2^63; larger p is refused.
    Pivot inverses come from inverse_table on int16 and as piv^(p-2) on
    int64.
    """
    _check_exact(p)
    small = (p - 1) ** 2 < 1 << 15
    a = np.asarray(mats, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError("expected a (B, r, c) stack")
    if a.shape[1] > a.shape[2]:
        a = a.transpose(0, 2, 1)
    a = (a % p).astype(np.int16 if small else np.int64, order="C")  # reduced first: the cast would wrap
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


_TABLE_CAP = 1 << 22  # most bytes one rank or peel table may allocate
_REPAY = 16  # most table bytes per matrix that eliminating it would pay for
_ELIM_CALL = 64  # a rank_batch call's cost apart from its matrices, counted in matrices


def _affords(nbytes: int, count: int) -> bool:
    """Whether a table of nbytes may be built to rank `count` matrices: one
    such call without it would cost about as much as building it."""
    return nbytes <= min(_TABLE_CAP, _REPAY * (count + _ELIM_CALL))


def digit_sums(parts, dtype=np.intp) -> np.ndarray:
    """out[x] = sum_k parts[k][digit k of x] for every mixed-radix number x
    (digit 0 lowest, digit k below len(parts[k])), broadcast one digit at a
    time with no digit expansion. Every sum must fit `dtype`."""
    out = np.zeros(1, dtype=dtype)
    for part in parts:
        out = (np.asarray(part, dtype=dtype)[:, None] + out).ravel()
    return out


def _peel_bytes(p: int, width: int) -> int:
    """Bytes of _peel(p, width) as allocated."""
    return p ** (2 * width) * np.min_scalar_type(p ** (width - 1) - 1).itemsize


def _peel_row(every: np.ndarray, p: int, first: int) -> np.ndarray:
    """Every packed row, given by its width base-p digits as a row of
    `every`, peeled by the nonzero packed row `first`: minus the multiple of
    `first` that clears first's pivot column (its first nonzero digit),
    with that column dropped, packed again over width - 1 digits."""
    lead = every[first]
    pivot = int(np.flatnonzero(lead)[0])
    scale = every[:, pivot] * field_inv(int(lead[pivot]), p) % p
    reduced = np.delete((every - scale[:, None] * lead) % p, pivot, axis=1)
    return reduced @ p ** np.arange(every.shape[1] - 1)


@lru_cache(maxsize=None)
def _peel(p: int, width: int) -> np.ndarray:
    """The row-peeling table: entry first * p^width + row is the packed
    `row` peeled by the packed `first` (_peel_row). Entries with first = 0
    are 0: a zero lead means every row is zero."""
    size = p**width
    every = digits(np.arange(size), p, width)
    out = np.zeros((size, size), dtype=np.min_scalar_type(p ** (width - 1) - 1))
    for first in range(1, size):
        out[first] = _peel_row(every, p, first)
    return out.ravel()


@lru_cache(maxsize=None)
def rank_table(p: int, rows: int, width: int) -> np.ndarray:
    """table[v] (uint8) is the rank of the rows x width matrix packed into
    the base-p digits of v (row-major, digit 0 first); rows <= width.

    Built by row peeling, with no elimination: where the first row (the
    lowest `width` digits of v) is zero, the rank is that of the other
    rows; else it is 1 + the rank of the other rows peeled by the first
    (_peel_row), a (rows - 1) x (width - 1) matrix. Both tables are built
    the same way. Peeled rows are computed per first row, so the build
    holds no peel table, which can be larger than the table."""
    size = p**width
    if rows == 1:
        return (np.arange(size) != 0).astype(np.uint8)
    rest = rank_table(p, rows - 1, width - 1)
    out = np.empty((p ** ((rows - 1) * width), size), dtype=np.uint8)  # [other rows, first row]
    out[:, 0] = rank_table(p, rows - 1, width)
    every = digits(np.arange(size), p, width)
    for first in range(1, size):
        peeled = _peel_row(every, p, first)
        out[:, first] = rest[digit_sums([peeled * (size // p) ** k for k in range(rows - 1)])] + 1
    return out.ravel()


def _eliminates(p: int, rows: int, width: int, count: int) -> bool:
    """Whether rank_rows ranks `count` rows x width matrices by rank_batch:
    neither their rank_table nor the first peel table is affordable. Peel
    tables shrink with the width, so once one is, every later one is."""
    affordable = _affords(p ** (rows * width), count) or _affords(_peel_bytes(p, width), count)
    return rows > 1 and not affordable


def rank_rows(rows, p: int, width: int) -> np.ndarray:
    """Ranks (uint8) of a stack of len(rows) x width matrices, len(rows) <=
    width, given by their packed rows: rows[i][b] holds row i of matrix b
    as the base-p number of its entries (entry j the digit of p^j).

    Peels each matrix by a nonzero row (_peel), adding 1 where it has one,
    until the rows left have an affordable rank_table; where _eliminates,
    rank_batch ranks the digits instead."""
    rows = list(rows)
    count = len(rows[0])
    if _eliminates(p, len(rows), width, count):
        mats = np.stack([digits(r, p, width) for r in rows], axis=1)
        return rank_batch(mats, p).astype(np.uint8)
    rank = np.zeros(count, dtype=np.uint8)
    while len(rows) > 1 and not _affords(p ** (len(rows) * width), count):
        # the lead is rows[0], or where that is zero the largest other row (0
        # where every row is); rows[1:] peeled by it are the other rows and a
        # zero row, as rows[0] is zero wherever the lead is another row
        lead = np.where(rows[0] != 0, rows[0], reduce(np.maximum, rows[1:]))
        rank += lead != 0
        peel, first = _peel(p, width), lead.astype(np.intp) * p**width
        rows = [peel.take(first + r) for r in rows[1:]]
        width -= 1
    if len(rows) == 1:
        return rank + (rows[0] != 0)
    index = np.zeros(count, dtype=np.intp)
    for r in reversed(rows):
        index = index * p**width + r
    return rank + rank_table(p, len(rows), width).take(index)


def rank_stack(mats, p: int) -> np.ndarray:
    """Ranks (uint8) of a (B, rows, width) stack, 1 <= rows <= width: by
    rank_rows on its packed rows, or by rank_batch where rank_rows would
    eliminate or a row's number would not fit int64."""
    a = np.asarray(mats, dtype=np.int64)
    count, rows, width = a.shape
    if p ** width > 1 << 62 or _eliminates(p, rows, width, count):
        return rank_batch(a, p).astype(np.uint8)
    return rank_rows((a % p @ p ** np.arange(width)).T, p, width)


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
