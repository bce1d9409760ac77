import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from amegraph import composite, gfp


def test_is_prime():
    assert [p for p in range(30) if gfp.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_ensure_prime_rejects():
    with pytest.raises(gfp.NotPrimeError):
        gfp.ensure_prime(9)


@pytest.mark.parametrize("a,p,inv", [(1, 3, 1), (2, 5, 3), (4, 7, 2)])
def test_field_inv_examples(a, p, inv):
    assert gfp.field_inv(a, p) == inv


def test_field_inv_zero():
    with pytest.raises(gfp.NotInvertibleError):
        gfp.field_inv(0, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_field_inv_involution(p):
    for a in range(1, p):
        assert gfp.field_inv(gfp.field_inv(a, p), p) == a


@pytest.mark.parametrize(
    "rows,p,rank",
    [
        ([[1, 1], [2, 1]], 3, 2),
        ([[1, 1], [1, 1]], 2, 1),
        ([[2, 3], [3, 1]], 7, 1),
        ([[2, 3], [3, 1]], 5, 2),
    ],
)
def test_mat_rank_examples(rows, p, rank):
    assert gfp.mat_rank(rows, p) == rank


def test_mat_rank_zero_and_empty():
    assert gfp.mat_rank(np.zeros((3, 3), dtype=int), 5) == 0
    assert gfp.mat_rank(np.zeros((0, 4), dtype=int), 5) == 0


def test_rank_transpose_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5]))
        r, c = rng.integers(1, 6, size=2)
        m = rng.integers(0, p, size=(r, c))
        assert gfp.mat_rank(m, p) == gfp.mat_rank(m.T, p)


def test_mat_inverse_examples():
    assert (gfp.mat_inverse(np.eye(3, dtype=int), 3) == np.eye(3, dtype=int)).all()
    m = np.array([[1, 0], [1, 1]])
    assert (gfp.mat_inverse(m, 2) == m).all()


def test_mat_inverse_known_ternary_block():
    # unit-upper block arising in the code-to-graph reduction; its unique
    # inverse is the row mix that restores the identity
    block = np.array([[1, 0, 1, 2], [0, 1, 1, 1], [0, 0, 1, 2], [0, 0, 1, 1]])
    want = np.array([[1, 0, 2, 0], [0, 1, 0, 2], [0, 0, 2, 2], [0, 0, 1, 2]])
    assert (gfp.mat_inverse(block, 3) == want).all()


def test_mat_inverse_roundtrip_and_singular():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(200):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 5))
        m = rng.integers(0, p, size=(n, n))
        if gfp.mat_rank(m, p) < n:
            with pytest.raises(gfp.SingularMatrixError):
                gfp.mat_inverse(m, p)
        else:
            hits += 1
            inv = gfp.mat_inverse(m, p)
            assert ((m @ inv) % p == np.eye(n, dtype=int)).all()
            assert ((inv @ m) % p == np.eye(n, dtype=int)).all()
    assert hits > 50


@pytest.mark.parametrize("mat,p,rank", [
    ([[1, 2], [2, 4]], 5, 1),
    ([[0, 1], [0, 1]], 3, 1),  # a's pivot is column 1; (a | I)'s next is column 2
    ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 2, 2),
    (np.zeros((3, 3), dtype=int), 7, 0),
])
def test_mat_inverse_names_the_rank_of_a_singular_matrix(mat, p, rank):
    n = len(mat)
    with pytest.raises(gfp.SingularMatrixError, match=rf"^rank {rank} < {n}$"):
        gfp.mat_inverse(mat, p)
    assert gfp.mat_rank(mat, p) == rank


def test_kernel_basis_zero_matrix():
    basis = gfp.kernel_basis(np.zeros((2, 2), dtype=int), 2)
    assert basis.shape == (2, 2)
    assert gfp.mat_rank(basis, 2) == 2


def test_kernel_basis_hamming():
    # the ternary self-dual code: kernel of G^T has the same row space as G^T
    g = np.array([[1, 0], [0, 1], [1, 1], [2, 1]])
    basis = gfp.kernel_basis(g.T, 3)
    assert basis.shape == (2, 4)
    stacked = np.vstack([basis, g.T])
    assert gfp.mat_rank(stacked, 3) == 2


def test_kernel_basis_annihilates():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = int(rng.choice([2, 3, 5]))
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        m = rng.integers(0, p, size=(r, c))
        basis = gfp.kernel_basis(m, p)
        assert basis.shape[0] == c - gfp.mat_rank(m, p)
        for v in basis:
            assert ((m @ v) % p == 0).all()


def test_rank_batch_matches_scalar():
    rng = np.random.default_rng(4)
    for p in (2, 3, 5, 31):
        mats = rng.integers(0, p, size=(300, 3, 4))
        got = gfp.rank_batch(mats, p)
        want = [gfp.mat_rank(m, p) for m in mats]
        assert got.tolist() == want


@pytest.mark.parametrize("p", [31, 181, 191, 251, 257, 65537, 2**31 - 1])
def test_rank_batch_exact_for_large_p(p):
    # products of two (3 x 2) and (2 x 3) factors: rank at most 2, and the
    # elimination multiplies residues up to (p - 1)^2; above p = 181 it
    # inverts pivots as piv^(p-2) on int64
    rng = np.random.default_rng(p)
    left = rng.integers(0, p, size=(300, 3, 2)).astype(object)
    right = rng.integers(0, p, size=(300, 2, 3)).astype(object)
    mats = np.array(left @ right % p, dtype=np.int64)  # Python ints: exact at any p
    mats[:100, :, 2] = mats[:100, :, 0]  # some of rank at most 1
    mats[:100, :, 1] = (7 * mats[:100, :, 0]) % p
    want = [gfp.mat_rank(m, p) for m in mats]
    assert gfp.rank_batch(mats, p).tolist() == want
    assert set(want) >= {1, 2}


@st.composite
def _rank_stacks(draw, cut_blocks=False):
    """A prime and a (B, r, c) stack with B in {0, 1, many} and r, c in
    0..7 (so r > c too), or 1 <= r <= c as in a cut block. Each matrix is
    random, a product of thin factors (rank below min(r, c)), has rows that
    repeat an earlier row times a scalar, or has some leading rows zero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 181, 191, 257, 65537]))
    if cut_blocks:
        cols = draw(st.integers(1, 7))
        rows = draw(st.integers(1, cols))
    else:
        rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 24)))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    mats = np.zeros((count, rows, cols), dtype=np.int64)
    for m in mats:
        kind = draw(st.sampled_from(["random", "thin", "repeat", "lead zero"]))
        if kind == "thin":
            k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
            left = draw(hnp.arrays(np.int64, (rows, k), elements=entry))
            right = draw(hnp.arrays(np.int64, (k, cols), elements=entry))
            m[...] = left @ right % p  # at most 6 * 65536^2: exact
        else:
            m[...] = draw(hnp.arrays(np.int64, (rows, cols), elements=entry))
        if kind == "repeat":
            for i in range(1, rows):
                if draw(st.booleans()):
                    m[i] = m[draw(st.integers(0, i - 1))] * draw(entry) % p
        if kind == "lead zero":
            m[:draw(st.integers(0, rows))] = 0
    return p, mats


@settings(max_examples=200, deadline=None)
@given(_rank_stacks())
def test_rank_batch_matches_mat_rank(pm):
    # scalar Gauss-Jordan (row_reduce) is the independent oracle for the
    # batched forward elimination
    p, mats = pm
    got = gfp.rank_batch(mats, p)
    assert got.shape == (len(mats),)
    assert got.tolist() == [gfp.mat_rank(m, p) for m in mats]


@settings(max_examples=150, deadline=None)
@given(_rank_stacks(cut_blocks=True))
def test_rank_kernel_matches_mat_rank(pm):
    # the one cut-rank kernel against scalar row_reduce, with the cap alone
    # deciding (_REPAY lifted) and lowered through every branch: table
    # lookups, one or more peels, elimination. rank_rows takes packed rows,
    # where they fit int64; rank_stack packs them itself
    p, mats = pm
    count, rows, width = mats.shape
    want = [gfp.mat_rank(m, p) for m in mats]
    caps = {1, 1 << 22} | {gfp._peel_bytes(p, w) for w in range(1, width + 1)}
    caps |= {p ** (r * (r + width - rows)) for r in range(1, rows + 1)}
    for cap in sorted(c for c in caps if c <= 1 << 22):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gfp, "_TABLE_CAP", cap)
            mp.setattr(gfp, "_REPAY", 1 << 62)
            got = gfp.rank_stack(mats, p)
            assert got.dtype == np.uint8 and got.tolist() == want
            if p**width <= 1 << 62:
                got = gfp.rank_rows((mats @ p ** np.arange(width)).T, p, width)
                assert got.dtype == np.uint8 and got.tolist() == want


def test_rank_kernels_reduce_before_narrowing(monkeypatch):
    # 65539 = 1 mod 3, but an int16 cast wraps it to 3 = 0 mod 3; above
    # p = 181 entries stay int64, here a row 5 times the other mod 191
    wide = [([[65539, 0], [0, 1]], 3, 2), ([[191 * 2**40 + 5, -186], [1, 1]], 191, 1)]
    monkeypatch.setattr(gfp, "_REPAY", 1 << 62)  # rank_stack packs rows at p = 3
    for mat, p, rank in wide:
        assert gfp.mat_rank(mat, p) == rank
        assert gfp.rank_batch(np.array([mat]), p).tolist() == [rank]
        assert gfp.rank_stack(np.array([mat]), p).tolist() == [rank]


def test_rank_batch_refuses_inexact_p():
    with pytest.raises(ValueError):
        gfp.rank_batch(np.ones((1, 2, 2), dtype=np.int64), 3037000507)


def test_bitpacked_rank_matches_generic():
    rng = np.random.default_rng(5)
    for _ in range(300):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        m = rng.integers(0, 2, size=(r, c))
        rows = [int(row @ (1 << np.arange(c))) for row in m]  # column j -> bit j
        assert gfp.rank_gf2(rows) == gfp.mat_rank(m, 2)


def test_is_prime_is_one_factor():
    assert composite.factorize is gfp.factorize
    assert all(gfp.is_prime(d) == (gfp.factorize(d) == [d]) for d in range(2, 500))


def test_primality_is_decided_once_per_p(monkeypatch):
    # every Graph, SearchSpec, StateVector and LinearCode calls ensure_prime;
    # at p = 2147483659 one trial division takes milliseconds
    p, factorize, calls = 2147483659, gfp.factorize, []

    def counted(d):
        calls.append(d)
        return factorize(d)

    monkeypatch.setattr(gfp, "factorize", counted)
    gfp.is_prime.cache_clear()
    for _ in range(3):
        assert gfp.ensure_prime(p) == p and gfp.is_prime(p)
        with pytest.raises(gfp.NotPrimeError):
            gfp.ensure_prime(p + 2)
    assert calls == [p, p + 2]


def test_row_reduce_refuses_inexact_p():
    # [[p-1, p-2], [1, 2]] is -1 times its second row, so rank 1; at
    # p = 4294967311 the int64 products (p-1)^2 overflow and gave rank 2
    p = 2147483647  # (p - 1)^2 < 2^63: still exact
    assert gfp.mat_rank([[p - 1, p - 2], [1, 2]], p) == 1
    p = 4294967311
    for fn in (gfp.mat_rank, gfp.row_reduce, gfp.kernel_basis):
        with pytest.raises(ValueError):
            fn([[p - 1, p - 2], [1, 2]], p)


_FITS = {2: [np.uint8, np.int16, np.int64], 3: [np.uint8, np.int16, np.int64],
         5: [np.uint8, np.int16, np.int64], 257: [np.uint16, np.int16, np.int32, np.int64]}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FITS)), st.data())
def test_digits_round_trip(base, data):
    width = data.draw(st.integers(1, 7))
    dtype = data.draw(st.sampled_from(_FITS[base]))
    values = data.draw(st.lists(st.integers(0, base**width - 1), max_size=20))
    got = gfp.digits(values, base, width, dtype)
    assert got.dtype == dtype and got.shape == (len(values), width)
    for v, row in zip(values, got.tolist()):
        want = []
        for _ in range(width):
            v, d = divmod(v, base)
            want.append(d)
        assert row == want  # little-endian: column i is the coefficient of base^i
    assert (got.astype(np.int64) @ base ** np.arange(width) == np.array(values, dtype=np.int64)).all()


@st.composite
def _residue_matrices(draw):
    """Matrices of every rank: rows are random combinations (Python ints,
    so exact at any p) of a few random rows, with zeros mixed in."""
    p = draw(st.sampled_from([2, 3, 5, 3037000493]))  # the last: (p - 1)^2 just under 2^63
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    basis = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=rows))
    mat = []
    for _ in range(rows):
        coef = draw(st.lists(entry, min_size=len(basis), max_size=len(basis)))
        mat.append([sum(c * b[j] for c, b in zip(coef, basis)) % p for j in range(cols)])
    return p, np.array(mat, dtype=np.int64)


@settings(max_examples=120, deadline=None)
@given(_residue_matrices())
def test_row_reduce_is_rref_of_the_row_space(pm):
    p, a = pm
    red, pivots = gfp.row_reduce(a, p)
    rank = len(pivots)
    assert red.shape == a.shape and ((0 <= red) & (red < p)).all()
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert red[i, c] == 1 and not red[i, :c].any()
        assert not np.delete(red[:, c], i).any()
    assert not red[rank:].any()
    # same row space: stacking the two adds nothing to the input's rank
    ranks = gfp.rank_batch(np.stack([a, red]), p)
    both = gfp.rank_batch(np.vstack([a, red])[None], p)[0]
    assert ranks[0] == ranks[1] == both == rank
    assert gfp.mat_rank(a, p) == rank


def _reference_row_reduce(mat, p):
    """Gauss-Jordan mod p as row_reduce once ran it: residues copied twice,
    a fancy-index row swap, and a zeroed copy of the pivot column."""
    a = gfp.as_residues(mat, p).copy()
    rows, cols = a.shape
    pivots = []
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
        a[r] = (a[r] * gfp.field_inv(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= col[:, None] * a[r]  # every other row at once
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 2**31 - 1]), st.integers(0, 8), st.integers(0, 10), st.data())
def test_row_reduce_matches_reference_gauss_jordan(p, rows, cols, data):
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(-2 * p, 2 * p))
    a = data.draw(hnp.arrays(np.int64, (rows, cols), elements=entry))
    a[data.draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows)) if rows else []] = 0
    a[:, data.draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=cols)) if cols else []] = 0
    given_a = a.copy()
    red, pivots = gfp.row_reduce(a, p)
    want, want_pivots = _reference_row_reduce(a, p)
    assert pivots == want_pivots
    assert red.dtype == want.dtype and red.shape == want.shape and np.array_equal(red, want)
    assert np.array_equal(a, given_a)  # the caller's matrix is not reduced in place
    assert gfp.mat_rank(a, p) == len(want_pivots)
