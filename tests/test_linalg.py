from fractions import Fraction
from math import gcd
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nesthilb import linalg
from nesthilb.ideals import FiniteGradedModule, Nesting, generic_ideal_with_hilbert_function
from nesthilb.linalg import (DEFAULT_PRIME, FieldSpec, LinalgError, Mat, QQ,
                             left_mul_vecrows, right_mul_vecrows)
from nesthilb.ring import RingCtx
from nesthilb.tangent import ModuleSource, nested_tangent_graded

from mat_lists import to_lists

FP = FieldSpec.prime(DEFAULT_PRIME)


@pytest.mark.parametrize("fld", [QQ, FP])
def test_rank_examples(fld):
    assert Mat.identity(fld, 3).rank() == 3
    assert Mat.zeros(fld, 4, 7).rank() == 0
    assert Mat.from_rows(fld, [[1, 2], [2, 4]]).rank() == 1
    # zero rows among full-rank and rank-deficient nonzero rows
    assert Mat.from_rows(fld, [[0, 0, 0, 0], [1, 0, 0, 2], [0, 0, 0, 0],
                               [0, 1, 0, 0], [0, 0, 1, 1]]).rank() == 3
    assert Mat.from_rows(fld, [[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6]]).rank() == 1


def test_rational_rank_where_the_prime_divides_an_entry_denominator_or_minor():
    # QQ rank first tries the rank mod the first lift prime of the integer
    # rows; it must look further wherever that rank drops, and clear
    # denominators first.  For [[p]] with p that prime, the kernel mod p is
    # spanned by (1), which lifts to 1 but is no kernel vector over QQ: only
    # the exact check M @ W = 0 rejects it
    for p in (DEFAULT_PRIME, linalg._LIFT_PRIMES[0]):
        assert Mat.from_rows(QQ, [[p]]).rank() == 1
        assert Mat.from_rows(QQ, [[Fraction(1, p), 1], [0, 1]]).rank() == 2
        assert Mat.from_rows(QQ, [[1, 1], [1, p + 1]]).rank() == 2
        assert Mat.from_rows(QQ, [[0, 0], [p, 2 * p], [0, 0], [Fraction(-1, p), 0]]).rank() == 2


@pytest.mark.parametrize("fld", [QQ, FP])
def test_kernel_examples(fld):
    k = Mat.from_rows(fld, [[1, 1]]).kernel_basis()
    assert k.nrows == 1
    assert to_lists(k)[0][0] == 1  # echelon-normalised leading one
    assert Mat.vstack(fld, [k, Mat.from_rows(fld, [[1, -1]])], 2).rank() == 1
    assert Mat.from_rows(fld, [[1, 1], [0, 1]]).kernel_basis().nrows == 0
    assert Mat.zeros(fld, 2, 3).kernel_basis().nrows == 3


def test_kernel_canonical_form_over_qq():
    k = Mat.from_rows(QQ, [[1, 1]]).kernel_basis()
    assert to_lists(k) == [[1, -1]]


def test_field_spec_parse():
    assert FieldSpec.parse("rational").is_rational
    assert FieldSpec.parse("prime:101").p == 101
    assert FieldSpec.parse("F32003").p == 32003
    with pytest.raises(Exception):
        FieldSpec.parse("prime:32004")  # not prime


def test_field_spec_refuses_primes_beyond_exact_float_products():
    # the dense backend multiplies in float64, exact while p^2 < 2^53
    assert FieldSpec.prime(94906249).p == 94906249  # largest such prime
    for p in (94906297, 1000000007):
        with pytest.raises(LinalgError):
            FieldSpec.prime(p)


small_matrix = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    min_size=1, max_size=6).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.sampled_from([None, DEFAULT_PRIME, 101]))
def test_kernel_vectors_annihilate(rows, p):
    fld = QQ if p is None else FieldSpec.prime(p)
    m = Mat.from_rows(fld, rows)
    ker = m.kernel_basis()
    assert ker.nrows + m.rank() == m.ncols
    if ker.nrows:
        prod = m.matmul(ker.transpose())
        assert prod.is_zero()


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_prime_rank_bounds_rational_rank(rows):
    rq = Mat.from_rows(QQ, rows).rank()
    rp = Mat.from_rows(FP, rows).rank()
    assert rp <= rq


@settings(max_examples=40, deadline=None)
@given(small_matrix, st.randoms(use_true_random=False))
def test_rref_is_row_order_invariant(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    a, pa = Mat.from_rows(QQ, rows).rref()
    b, pb = Mat.from_rows(QQ, shuffled).rref()
    assert pa == pb and a == b


def test_rref_with_transform_reconstructs():
    m = Mat.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # rank 2 < 3 rows
    red, piv, t, k = m.rref_with_transform()
    assert piv == [0, 1]
    assert to_lists(red) == [[1, 0, 1], [0, 1, 1]]
    assert (t.nrows, t.ncols) == (2, 3)
    assert t.matmul(m) == red
    assert k.nrows == 1 and k.matmul(m).is_zero()
    m = Mat.from_rows(QQ, [[2, 4, 6], [0, 1, 1]])
    red, piv, s, k = m.rref_with_transform()
    assert piv == [0, 1]
    assert to_lists(red) == [[1, 0, 1], [0, 1, 1]]
    assert (s.nrows, s.ncols) == (2, 2)
    assert s.matmul(m) == red
    assert (k.nrows, k.ncols) == (0, 2)


def _dense_mul(a, b, ncols):
    """a @ b on lists of lists of Fractions, b with ncols columns."""
    return [[sum((v * b[k][j] for k, v in enumerate(row)), Fraction(0))
             for j in range(ncols)] for row in a]


def _in_field(rows, fld):
    """Fraction rows as entries of fld: a/b is a * b^-1 mod p over GF(p)."""
    if fld.is_rational:
        return rows
    p = fld.p
    return [[v.numerator * pow(v.denominator, -1, p) % p for v in r] for r in rows]


def _random_rows(rng, nrows, ncols):
    return [[Fraction(int(v)) for v in row]
            for row in rng.integers(-5, 5, size=(nrows, ncols))]


_F = Fraction
# (L, b, T) for L of shape s x t, b of shape t x t2 and T of shape nt x s, or
# the shape (s, t, t2, nt) of random integer ones
_PRODUCT_CASES = {
    "random": (3, 4, 2, 5),
    # one entry of L @ b and one of T @ L cancel to zero
    "cancelling": ([[_F(1, 2), _F(1, 3)], [_F(1, 3), _F(1, 2)]],
                   [[_F(2), _F(3)], [_F(-3), _F(-2)]], [[_F(2), _F(-3)], [_F(1), _F(1)]]),
    "s=0": (0, 3, 2, 2),
    "t=0": (2, 0, 3, 2),
    "b.ncols=0": (2, 3, 0, 2),
    "T.nrows=0": (2, 3, 2, 0),
}


@pytest.mark.parametrize("q", [0, 4], ids=["q0", "q4"])
@pytest.mark.parametrize("case", list(_PRODUCT_CASES))
@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "Fp"])
def test_vecrow_helpers_match_direct_products(fld, case, q):
    """Both vec-row products and Mat.matmul against a dense product of
    Fractions, reduced mod p over GF(p), on q parameter rows."""
    spec = _PRODUCT_CASES[case]
    if isinstance(spec[0], int):
        s, t, t2, nt = spec
        rng = np.random.default_rng(7)
        lam, b, tr = (_random_rows(rng, *shape) for shape in ((s, t), (t, t2), (nt, s)))
    else:
        lam, b, tr = spec
        s, t, t2, nt = len(lam), len(b), len(b[0]), len(tr)

    def params(m, width):  # rows vec(k * m) for k = 1 .. q - 1, then a zero row
        return [[k * v for row in m for v in row] for k in range(1, q)] + [[0] * width] * (q > 0)

    def mat(rows, ncols):
        return Mat.from_rows(fld, _in_field(rows, fld), ncols=ncols)

    def check(got, want, ncols):
        assert (got.nrows, got.ncols) == (len(want), ncols)
        assert to_lists(got) == _in_field(want, fld)
        assert all(v != 0 for i in range(got.nrows) for v in got.row_items(i).values())

    lb, tl = _dense_mul(lam, b, t2), _dense_mul(tr, lam, t)
    p = mat(params(lam, s * t), s * t)
    check(right_mul_vecrows(p, s, t, mat(b, t2)), params(lb, s * t2), s * t2)
    check(left_mul_vecrows(p, s, t, mat(tr, s)), params(tl, nt * t), nt * t)
    # the same products as matrices: t = 0 and s = 0 have an empty inner dimension
    check(mat(lam, t).matmul(mat(b, t2)), lb, t2)
    check(mat(tr, s).matmul(mat(lam, t)), tl, t)


@pytest.mark.parametrize("fld", [QQ, FP])
def test_row_items_lists_nonzero_entries(fld):
    m = Mat.from_rows(fld, [[0, 3, 0, -2], [0, 0, 0, 0], [5, 0, 1, 0]])
    want = [{1: 3, 3: -2}, {}, {0: 5, 2: 1}]
    for i, row in enumerate(want):
        got = m.row_items(i)
        assert sorted(got) == sorted(row)  # no stored zeros
        back = Mat.from_entries(fld, 1, 4, ((0, j, v) for j, v in got.items()))
        assert back == m.take_rows([i])
        assert back == Mat.from_entries(fld, 1, 4, ((0, j, v) for j, v in row.items()))


def _assert_stored_form(m):
    """The storage invariant.  Over GF(p) a matrix is stored on rows {col: v}
    with v in [1, p) iff nnz * _SPARSE_RATIO <= size, and as an int64 array
    with entries in [0, p) otherwise.  Over QQ each row is nonzero integer
    numerators over a denominator d >= 1 in lowest terms, and an empty row
    has d = 1."""
    if not m.field.is_rational:
        p = m.field.p
        assert m.dens is None and (m.rows is None) != (m._arr is None)
        if m.rows is not None:
            assert len(m.rows) == m.nrows
            assert all(type(j) is int and 0 <= j < m.ncols and type(v) is int and 0 < v < p
                       for r in m.rows for j, v in r.items())
            nnz = sum(map(len, m.rows))
        else:
            assert m._arr.dtype == np.int64 and m._arr.shape == (m.nrows, m.ncols)
            assert ((m._arr >= 0) & (m._arr < p)).all()
            nnz = int(np.count_nonzero(m._arr))
        assert (m.rows is not None) == (nnz * linalg._SPARSE_RATIO <= m.nrows * m.ncols)
        return
    assert len(m.rows) == len(m.dens) == m.nrows
    for r, d in zip(m.rows, m.dens):
        assert type(d) is int and d >= 1
        assert all(type(v) is int and v != 0 and 0 <= j < m.ncols for j, v in r.items())
        assert gcd(d, *r.values()) == 1  # gcd(d) = d: an empty row has d = 1


@settings(max_examples=120, deadline=None)
@given(st.data(), *(st.integers(0, 3) for _ in range(5)))
def test_rational_storage_matches_fraction_reference(data, s, t, t2, nt, q):
    """Products, differences, builders and reshaping on the numerator rows
    against the same operations on lists of Fractions, with empty shapes."""
    def entry():
        return data.draw(_entries(None))

    lam, b, tr = ([[entry() for _ in range(m)] for _ in range(n)]
                  for n, m in ((s, t), (t, t2), (nt, s)))
    # rows that share some entries with lam: their differences partly cancel
    other = [[v if data.draw(st.booleans()) else entry() for v in r] for r in lam]

    def mat(rows, ncols):
        m = Mat.from_rows(QQ, rows, ncols=ncols)
        _assert_stored_form(m)
        return m

    def check(got, want, ncols):
        _assert_stored_form(got)
        assert (got.nrows, got.ncols) == (len(want), ncols)
        assert to_lists(got) == want
        assert got == Mat.from_rows(QQ, want, ncols=ncols)  # one stored form

    m_lam, m_b, m_tr = mat(lam, t), mat(b, t2), mat(tr, s)
    check(m_lam.matmul(m_b), _dense_mul(lam, b, t2), t2)
    check(m_tr.matmul(m_lam), _dense_mul(tr, lam, t), t)
    check(m_lam.sub(mat(other, t)),
          [[Fraction(x) - y for x, y in zip(r, o)] for r, o in zip(lam, other)], t)
    check(m_lam.sub(m_lam), [[Fraction(0)] * t for _ in range(s)], t)
    # vec-row products: parameter rows vec(k * L) and a zero row
    params = [[Fraction(k) * v for row in lam for v in row] for k in range(1, q)]
    params += [[Fraction(0)] * (s * t)] * (q > 0)
    m_p = mat(params, s * t)
    blocks = [[row[a * t:(a + 1) * t] for a in range(s)] for row in params]  # the L

    def vec(mats):
        return [[v for row in m for v in row] for m in mats]

    check(right_mul_vecrows(m_p, s, t, m_b), vec(_dense_mul(l, b, t2) for l in blocks), s * t2)
    check(left_mul_vecrows(m_p, s, t, m_tr), vec(_dense_mul(tr, l, t) for l in blocks), nt * t)
    # entries split in two that sum back, and pairs that cancel to zero
    entries = []
    for i, row in enumerate(lam):
        for j, v in enumerate(row):
            w = entry()
            entries += [(i, j, w), (i, j, v - w), (i, j, -w), (i, j, w)]
    check(Mat.from_entries(QQ, s, t, entries), [[Fraction(v) for v in r] for r in lam], t)
    # reshaping
    full = [[Fraction(v) for v in r] for r in lam]
    check(m_lam.transpose(), [[r[j] for r in full] for j in range(t)], s)
    rows_idx = data.draw(st.lists(st.integers(0, s - 1), max_size=4)) if s else []
    check(m_lam.take_rows(rows_idx), [full[i] for i in rows_idx], t)
    cols_idx = data.draw(st.lists(st.integers(0, t - 1), unique=True, max_size=3)) if t else []
    check(m_lam.take_cols(cols_idx), [[r[j] for j in cols_idx] for r in full], len(cols_idx))
    dest = [c + 1 for c in cols_idx]
    want = [[Fraction(0)] * (t + 1) for _ in range(s)]
    for r, w in zip(full, want):
        for c, d in zip(cols_idx, dest):
            w[d] = r[c]
    check(m_lam.remap_cols(t + 1, list(zip(cols_idx, dest))), want, t + 1)
    perm = data.draw(st.permutations(range(t)))
    k = data.draw(st.integers(0, t))
    for got, part in zip(m_lam.split_cols(perm[:k], perm[k:]), (perm[:k], perm[k:])):
        check(got, [[r[j] for j in part] for r in full], len(part))
    check(Mat.hstack(QQ, [m_lam, mat(other, t)]),
          [r + [Fraction(v) for v in o] for r, o in zip(full, other)], 2 * t)
    check(Mat.vstack(QQ, [m_lam, mat(other, t)], t),
          full + [[Fraction(v) for v in o] for o in other], t)


_PRIMES = [2, 3, DEFAULT_PRIME, 94906249]


@st.composite
def _prime_rows(draw, p, nrows, ncols):
    """nrows x ncols residues mod p with a nonzero count drawn on either side
    of the storage threshold: zero, at most 1/20 of the entries, just above,
    or any."""
    size = nrows * ncols
    cap = size // linalg._SPARSE_RATIO
    nnz = draw(st.sampled_from(["zero", "sparse", "above", "any"]))
    k = {"zero": 0, "sparse": draw(st.integers(0, cap)), "above": min(size, cap + 1),
         "any": draw(st.integers(0, size))}[nnz]
    at = draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=k, max_size=k, unique=True))
    rows = [[0] * ncols for _ in range(nrows)]
    for pos in at:
        rows[pos // ncols][pos % ncols] = draw(st.integers(1, p - 1))
    return rows


def _mod(rows, p):
    """Integer (or integral Fraction) rows as residues mod p."""
    return [[int(v) % p for v in r] for r in rows]


def test_prime_field_storage_matches_dense_reference(monkeypatch):
    """Structural operations and products over GF(p) against lists of
    residues, on inputs drawn on both sides of the storage threshold, so that
    every operation meets both stored forms and mixes of them; equal entries
    compare equal whatever route built them.  The products run both on rows
    and on BLAS."""
    seen = set()
    for name in ("_sparse_mul", "_matmul_mod"):
        def counted(*args, _name=name, _orig=getattr(linalg, name)):
            out = _orig(*args)
            if np.any(out) if _name == "_matmul_mod" else any(out[0]):  # a nonzero product
                seen.add(_name)
            return out
        monkeypatch.setattr(linalg, name, counted)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(_PRIMES), *(st.integers(0, 5) for _ in range(4)),
           st.integers(0, 24))
    def agrees(data, p, s, t, t2, nt, q):
        fld = FieldSpec.prime(p)

        def draw(nrows, ncols):
            rows = data.draw(_prime_rows(p, nrows, ncols))
            m = Mat.from_rows(fld, rows, ncols=ncols)
            _assert_stored_form(m)
            seen.add("rows" if m.rows is not None else "array")
            return rows, m

        def check(got, want, ncols):
            _assert_stored_form(got)
            assert (got.nrows, got.ncols) == (len(want), ncols)
            assert to_lists(got) == want
            # the same entries built from an array, from rows and from triples
            assert got == Mat.from_rows(fld, want, ncols=ncols)
            assert got == Mat(fld, len(want), ncols,
                              arr=np.array(want, np.int64).reshape(len(want), ncols))
            assert got == Mat.from_entries(fld, len(want), ncols, (
                (i, j, v) for i, r in enumerate(want) for j, v in enumerate(r)))

        lam, m_lam = draw(s, t)
        other, m_other = draw(s, t)
        b, m_b = draw(t, t2)
        tr, m_tr = draw(nt, s)
        check(m_lam.matmul(m_b), _mod(_dense_mul(lam, b, t2), p), t2)
        check(m_tr.matmul(m_lam), _mod(_dense_mul(tr, lam, t), p), t)
        check(m_lam.sub(m_other),
              _mod([[x - y for x, y in zip(r, o)] for r, o in zip(lam, other)], p), t)
        check(Mat.hstack(fld, [m_lam, m_other]), [r + o for r, o in zip(lam, other)], 2 * t)
        check(Mat.vstack(fld, [m_lam, m_other], t), lam + other, t)
        check(m_lam.transpose(), [[r[j] for r in lam] for j in range(t)], s)
        cols = data.draw(st.lists(st.integers(0, t - 1), unique=True, max_size=t)) if t else []
        check(m_lam.take_cols(cols), [[r[j] for j in cols] for r in lam], len(cols))
        want = [[0] * (t + 1) for _ in range(s)]
        for r, w in zip(lam, want):
            for c in cols:
                w[c + 1] = r[c]
        check(m_lam.remap_cols(t + 1, [(c, c + 1) for c in cols]), want, t + 1)
        perm = data.draw(st.permutations(range(t)))
        k = data.draw(st.integers(0, t))
        for got, part in zip(m_lam.split_cols(perm[:k], perm[k:]), (perm[:k], perm[k:])):
            check(got, [[r[j] for j in part] for r in lam], len(part))
        # vec-row products on q parameter rows of width s * t
        params, m_p = draw(q, s * t)
        blocks = [[row[a * t:(a + 1) * t] for a in range(s)] for row in params]

        def vec(mats):
            return _mod([[v for row in m for v in row] for m in mats], p)

        check(right_mul_vecrows(m_p, s, t, m_b), vec(_dense_mul(l, b, t2) for l in blocks), s * t2)
        check(left_mul_vecrows(m_p, s, t, m_tr), vec(_dense_mul(tr, l, t) for l in blocks), nt * t)
        # the transform and the left kernel, of any rank
        want_red, want_piv, want_tf, want_ker = _ref_rref_with_transform(params, s * t, p)
        red, piv, tf, ker = m_p.rref_with_transform()
        assert piv == want_piv
        check(red, want_red, s * t)
        check(tf, want_tf, q)
        check(ker, want_ker, q)

    agrees()
    # one fixed nonzero product on each path: some seeds draw none on rows
    fld = FieldSpec.prime(DEFAULT_PRIME)
    one = Mat.from_entries(fld, 40, 40, [(3, 5, 7)])
    assert Mat.identity(fld, 40).matmul(one) == one
    dense = Mat.from_rows(fld, [[1, 2], [3, 4]])
    assert to_lists(dense.matmul(dense)) == [[7, 10], [15, 22]]
    assert seen == {"rows", "array", "_sparse_mul", "_matmul_mod"}


def test_rational_storage_is_canonical():
    # equal matrices built by different routes store the same rows
    half = Mat.from_rows(QQ, [[Fraction(2, 4)]])
    assert half == Mat.from_rows(QQ, [[Fraction(3, 2)]]).matmul(Mat.from_rows(QQ, [[Fraction(1, 3)]]))
    assert half == Mat.from_entries(QQ, 1, 1, [(0, 0, Fraction(5, 6)), (0, 0, Fraction(-1, 3))])
    m = Mat.from_rows(QQ, [[Fraction(1, 3), Fraction(5, 6)], [0, 4]])
    zero = m.sub(m)
    assert zero == Mat.zeros(QQ, 2, 2) and zero.dens == [1, 1]
    assert m.transpose().transpose() == m
    assert m.take_cols([1]) == Mat.from_rows(QQ, [[Fraction(5, 6)], [4]])
    assert m.take_cols([0]) == Mat.from_rows(QQ, [[Fraction(1, 3)], [0]])
    for out in (half, zero, m.transpose(), m.take_cols([0])):
        _assert_stored_form(out)


@pytest.mark.parametrize("fld", [QQ, FieldSpec.prime(7)], ids=["QQ", "F7"])
def test_entries_are_exact_or_refused(fld):
    # a/b is a * b^-1 mod p over GF(p); floats are refused over both fields,
    # and so is a denominator that p divides
    want = Fraction(1, 2) if fld.is_rational else 4
    for build in (lambda v: Mat.from_rows(fld, [[v]]),
                  lambda v: Mat.from_entries(fld, 1, 1, [(0, 0, v)])):
        assert to_lists(build(Fraction(1, 2))) == [[want]]
        assert to_lists(build(np.int64(9))) == [[9 if fld.is_rational else 2]]
        bad = [2.5, 0.1, 2.0, np.float64(1.0), "1/2"]
        if not fld.is_rational:
            bad.append(Fraction(3, 14))
        for v in bad:
            with pytest.raises(LinalgError):
                build(v)
    # ragged rows are refused, not padded with zeros or cut short
    for rows, ncols in (([[1, 2], [3]], None), ([[1], [2, 3]], None), ([[1, 2]], 1),
                        ([[1, 2], [3, 4]], 3)):
        with pytest.raises(LinalgError, match="row"):
            Mat.from_rows(fld, rows, ncols)
    assert Mat.from_rows(fld, [[Fraction(1, 2), 1]]).matmul(
        Mat.from_rows(fld, [[2], [-1]])).is_zero()


def test_remap_cols():
    m = Mat.from_rows(QQ, [[1, 2, 3]])
    out = m.remap_cols(5, [(0, 4), (2, 0)])
    assert to_lists(out) == [[3, 0, 0, 0, 1]]


def test_matmul_mod_exact_on_large_products():
    fld = FP
    a = Mat.from_rows(fld, [[DEFAULT_PRIME - 1] * 50])
    b = Mat.from_rows(fld, [[DEFAULT_PRIME - 1]] * 50)
    got = to_lists(a.matmul(b))[0][0]
    assert got == (50 * (DEFAULT_PRIME - 1) ** 2) % DEFAULT_PRIME
    # at the largest prime one product (p-1)^2 is near 2^53: the right factor
    # is split in two halves, and 9000 inner terms take two calls per half
    p = 94906249
    fld = FieldSpec.prime(p)
    rng = np.random.default_rng(p)
    for inner in (50, 9000):
        a = [[p - 1] * inner, rng.integers(0, p, inner).tolist()]
        b = [[p - 1, v] for v in rng.integers(0, p, inner).tolist()]
        got = to_lists(Mat.from_rows(fld, a).matmul(Mat.from_rows(fld, b)))
        assert got == [[sum(x * y for x, y in zip(r, c)) % p for c in zip(*b)] for r in a]


# ------------------------------------- both fields against a pure-Python oracle


def _normaliser(p):
    """Map a Python number to its canonical value: a Fraction over QQ
    (p None), its residue in [0, p) over GF(p)."""
    return Fraction if p is None else (lambda v: v % p)


def _ref_gauss_jordan(rows, ncols, p):
    """Textbook Gauss-Jordan on Python numbers: Fractions for p None, ints
    mod p otherwise.  The pivot of column c is the first row at or below the
    current one that is nonzero there; every other row is cleared.  Returns
    all rows (zero rows kept) and the pivots."""
    norm = _normaliser(p)
    a = [[norm(v) for v in r] for r in rows]
    m = len(a)
    piv, r = [], 0
    for c in range(ncols):
        if r == m:
            break
        i = next((i for i in range(r, m) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = 1 / a[r][c] if p is None else pow(a[r][c], p - 2, p)
        if inv != 1:
            a[r] = [norm(v * inv) for v in a[r]]
        for k in range(m):
            f = a[k][c]
            if k != r and f:
                a[k] = [norm(x - f * y) for x, y in zip(a[k], a[r])]
        piv.append(c)
        r += 1
    return a, piv


def _ref_rref(rows, ncols, p):
    a, piv = _ref_gauss_jordan(rows, ncols, p)
    return a[:len(piv)], piv


def _ref_kernel(rows, ncols, p):
    norm = _normaliser(p)
    red, piv = _ref_rref(rows, ncols, p)
    vecs = []
    for f in (j for j in range(ncols) if j not in piv):
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(piv):
            v[pc] = norm(-red[i][f])
        vecs.append(v)
    return _ref_rref(vecs, ncols, p)[0]


def _ref_rref_with_transform(rows, ncols, p):
    """The reduced [rows | identity], split after column ncols and after the
    rank: (R, pivots, T, K), K the right halves of the rows past the rank."""
    m = len(rows)
    aug = [list(r) + [int(i == k) for k in range(m)] for i, r in enumerate(rows)]
    a, piv = _ref_rref(aug, ncols + m, p)
    rank = sum(c < ncols for c in piv)
    return ([r[:ncols] for r in a[:rank]], piv[:rank], [r[ncols:] for r in a[:rank]],
            [r[ncols:] for r in a[rank:]])


def _check_against_reference(rows, ncols, p):
    fld = QQ if p is None else FieldSpec.prime(p)
    m = Mat.from_rows(fld, rows, ncols)
    red, piv = m.rref()
    want_red, want_piv = _ref_rref(rows, ncols, p)
    assert piv == want_piv
    assert to_lists(red) == want_red
    assert m.rank() == len(want_piv)
    ker = m.kernel_basis()
    assert to_lists(ker) == _ref_kernel(rows, ncols, p)
    for out in (m, red, ker):
        _assert_stored_form(out)
    r_mat, t_piv, t_mat, k_mat = m.rref_with_transform()
    _, _, want_t, want_k = _ref_rref_with_transform(rows, ncols, p)
    assert t_piv == want_piv
    assert to_lists(r_mat) == want_red
    assert to_lists(t_mat) == want_t
    assert to_lists(k_mat) == want_k
    for out in (r_mat, t_mat, k_mat):
        _assert_stored_form(out)
    # the contract, at any rank: T @ m = R, K @ m = 0, and T over K is the
    # invertible transform of the reduced [m | identity]
    assert (t_mat.nrows, t_mat.ncols) == (len(want_piv), len(rows))
    assert (k_mat.nrows, k_mat.ncols) == (len(rows) - len(want_piv), len(rows))
    assert to_lists(t_mat.matmul(m)) == want_red
    assert k_mat.matmul(m).is_zero()
    assert len(_ref_rref(to_lists(t_mat) + to_lists(k_mat), len(rows), p)[1]) == len(rows)


BIG = 1 << 300  # about the size of the entries tnt_qq's generic ideals produce


def _entries(p):
    if p is None:  # integers and fractions, small and of about 300 bits
        # multiples of the first lift prime, and fractions over it, send the
        # rational rank past its mod-p shortcut; DEFAULT_PRIME gives more
        # such structured entries
        qs = (DEFAULT_PRIME, linalg._LIFT_PRIMES[0])
        integer = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG),
                            st.sampled_from([-1] + [v for q in qs for v in (q, -q, 2 * q, q + 1)]),
                            st.builds(lambda k, q: k * q, st.integers(-BIG, BIG), st.sampled_from(qs)))
        return st.one_of(st.just(0), integer, st.builds(
            Fraction, integer, st.one_of(st.integers(1, 9), st.integers(1, BIG),
                                         st.sampled_from([d for q in qs for d in (q, q * q)]))))
    return st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))


def _sparse_rows(draw, nrows, ncols, nonzero):
    """nrows rows of width ncols >= 20 with 1-3 nonzeros each, at most
    nrows * ncols // 20 in all."""
    budget = nrows * ncols // 20
    rows = [[0] * ncols for _ in range(nrows)]
    for r in rows:
        k = min(draw(st.integers(1, 3)), budget)
        budget -= k
        for j in draw(st.lists(st.integers(0, ncols - 1), min_size=k, max_size=k, unique=True)):
            r[j] = draw(nonzero)
    return rows


@st.composite
def matrices(draw, fields, size):
    """A random, zero, rank-deficient or sparse matrix over a field drawn from
    fields.  The first three are at most size x size and mostly dense; a
    sparse one is up to 12 x 40 with 1-3 nonzeros a row and at most 1/20 of
    its entries nonzero, so GF(p) eliminates it on sparse rows."""
    p = draw(st.sampled_from(fields))
    norm = _normaliser(p)
    nrows, ncols = draw(st.integers(0, size)), draw(st.integers(0, size))
    entry = _entries(p)
    kind = draw(st.sampled_from(["any", "zero", "rank_deficient", "sparse"]))
    if kind == "sparse":
        nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(20, 40))
        rows = _sparse_rows(draw, nrows, ncols, entry.filter(bool))
    elif kind == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif kind == "rank_deficient":
        k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        b = [[draw(entry) for _ in range(k)] for _ in range(nrows)]
        c = [[draw(entry) for _ in range(ncols)] for _ in range(k)]
        rows = [[norm(sum(b[i][t] * c[t][j] for t in range(k))) for j in range(ncols)]
                for i in range(nrows)]
    else:
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols, p


@settings(max_examples=300, deadline=None)
@given(matrices([2, 3, DEFAULT_PRIME, 94906249], 7))
def test_prime_field_elimination_matches_python_reference(case):
    _check_against_reference(*case)


@settings(max_examples=200, deadline=None)
@given(matrices([2, 3, DEFAULT_PRIME, 94906249], 7))
def test_prime_field_rank_in_row_blocks_matches_python_reference(case):
    # with the smallest block, a matrix of n columns and more rows is ranked
    # n rows at a time, each block on the pivot rows of the ones before
    rows, ncols, p = case
    m = Mat.from_rows(FieldSpec.prime(p), rows, ncols=ncols)
    with patch.object(linalg, "_RANK_BLOCK", 1):
        assert m.rank() == len(_ref_rref(rows, ncols, p)[1])


@settings(max_examples=200, deadline=None)
@given(matrices([None], 6))
def test_rational_elimination_matches_python_reference(case):
    _check_against_reference(*case)


def _lift_integers():
    """Integers small and of about 300 bits, and multiples of the lift
    primes, which make the rank mod a prime drop below the rank over QQ."""
    primes = linalg._LIFT_PRIMES
    coeff = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))
    return st.one_of(coeff, st.sampled_from([primes[0], -primes[1], primes[0] * primes[1]]),
                     st.builds(lambda k, q: k * q, coeff, st.sampled_from(primes[:3])))


@st.composite
def deficient_products(draw):
    """B @ C for random integer matrices B (m x k) and C (k x n), so that the
    rank is at most k: zero for k = 0, and empty shapes for m or n = 0."""
    m, n, k = draw(st.integers(0, 8)), draw(st.integers(0, 8)), draw(st.integers(0, 4))
    entry = draw(st.sampled_from([st.integers(-3, 3), st.integers(-BIG, BIG), _lift_integers()]))
    b = [[draw(entry) for _ in range(k)] for _ in range(m)]
    c = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(n)] for i in range(m)], n


def test_rational_rank_matches_the_integer_forward_pass(monkeypatch):
    # the QQ rank settled mod primes (full rank, or a kernel lifted to QQ and
    # checked there) against the integer forward pass it falls back to; the
    # draws reach both the checked lift and the fallback
    forward_pass = linalg._rref_rows
    annihilates, modular_rank = linalg._annihilates, linalg._modular_rank
    calls = {"checked": 0, "fallback": 0}

    def counted_check(*args):
        ok = annihilates(*args)
        calls["checked"] += ok
        return ok

    def counted_rank(*args):
        rank = modular_rank(*args)
        calls["fallback"] += rank is None
        return rank

    monkeypatch.setattr(linalg, "_annihilates", counted_check)
    monkeypatch.setattr(linalg, "_modular_rank", counted_rank)

    @settings(max_examples=200, deadline=None)
    @given(deficient_products())
    @example(([[1, 2], [2, 4]], 2))  # kernels (-2, 1) on both sides lift
    # rank 1, with kernels (-v1/v0, 1) and (-u1/u0, 1) of about 300-bit
    # fractions on both sides, beyond what the lift primes reconstruct
    @example(([[u * v for v in (5 ** 130, 7 ** 107)] for u in (2 ** 300 + 1, 3 ** 190)], 2))
    def agrees(case):
        rows, ncols = case
        m = Mat.from_rows(QQ, rows, ncols)
        assert m.rank() == len(forward_pass(m._fresh_rows(), False, None)[1])

    agrees()
    assert calls["checked"] > 0 and calls["fallback"] > 0


@pytest.mark.parametrize("nrows, ncols", [(400, 180), (150, 500)])
def test_rational_lift_reads_its_side_in_row_blocks(nrows, ncols, monkeypatch):
    # rank-5 products B @ C of about 300-bit entries.  The lift reads the
    # narrower side first, the rows of a tall matrix and the columns of a
    # wide one, and here that side is taller than one block of the forward
    # passes.  The factor on that side has small entries, so its kernel
    # (that of C, or the left one of B) lifts and the exact check settles
    # the rank
    rng = np.random.default_rng(nrows)
    tall = nrows > ncols
    small = rng.integers(-3, 4, (5, ncols) if tall else (nrows, 5)).tolist()
    big = [[int.from_bytes(rng.bytes(38), "big") - BIG for _ in range(5 if tall else ncols)]
           for _ in range(nrows if tall else 5)]
    b, c = (big, small) if tall else (small, big)
    rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)] for r in b]
    n = min(nrows, ncols)
    assert max(nrows, ncols) > max(2 * n, linalg._RANK_BLOCK // n)
    annihilates, settled = linalg._annihilates, []

    def counted_check(*args):
        settled.append(annihilates(*args))
        return settled[-1]

    monkeypatch.setattr(linalg, "_annihilates", counted_check)
    m = Mat.from_rows(QQ, rows, ncols)
    assert m.rank() == len(linalg._rref_rows(m._fresh_rows(), False, None)[1]) == 5
    assert settled[-1:] == [True]


def _boundary_matrix(kind: str, p: int, size: int = 1100) -> list[list[int]]:
    a = np.eye(size, dtype=np.int64)
    last = size - 1
    if kind == "forward":
        # row and column `last` are p-1, a[last, last] = last: the true rank is
        # `last`, and row `last` takes one update of (p-1)^2 per pivot
        a[last, :] = p - 1
        a[:, last] = p - 1
        a[last, last] = last
    else:
        # row 0 is p-1 past its pivot and column `last` never gets a pivot:
        # solving that free column sums (p-1)^2 into row 0 once per pivot
        # row past the first, over 17 block steps of the free-column solve
        a[0, 1:last] = p - 1
        a[1:last, last] = p - 1
        a[last, last] = 0
    return a.tolist()


@pytest.mark.parametrize("kind", ["forward", "back"])
def test_deferred_reduction_survives_int64_at_the_largest_prime(kind):
    # p = 94906249 leaves room for only 1024 unreduced updates of (p-1)^2 in
    # int64, and the forward matrix needs more than that; the back one sums
    # 1098 such products in one entry of the free-column solve.  Both are
    # under 1/20 nonzero, so they are stored on sparse rows: rank takes the
    # dense forward pass, rref the row elimination, and the array itself
    # the dense forward pass and free-column solve
    p = 94906249
    rows = _boundary_matrix(kind, p)
    want_red, want_piv = _ref_rref(rows, len(rows), p)
    assert len(want_piv) == len(rows) - 1
    m = Mat.from_rows(FieldSpec.prime(p), rows)
    assert m.rank() == len(want_piv)
    red, piv = m.rref()
    assert piv == want_piv and to_lists(red) == want_red
    red, piv = linalg._rref_p(np.array(rows, np.int64), p)
    assert piv == want_piv and red.tolist() == want_red
    # the transform: row `last` is dependent in both, so the left kernel
    # has one vector
    r_mat, t_piv, t_mat, k_mat = Mat.from_rows(FieldSpec.prime(p), rows).rref_with_transform()
    want_r, want_t_piv, want_t, want_k = _ref_rref_with_transform(rows, len(rows), p)
    assert want_t_piv == want_piv and len(want_k) == 1
    assert t_piv == want_t_piv and to_lists(r_mat) == want_r
    assert to_lists(t_mat) == want_t and to_lists(k_mat) == want_k


# (rows, columns, rank): more than _BACK_BLOCK pivots, so the free-column
# solve takes more than one block step; tall and wide, full and deficient
# rank, and a wide deficient one with more free columns than pivots
BACK_BLOCK_CASES = [(150, 80, 80), (160, 100, 70), (100, 180, 100), (90, 160, 70)]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 94906249])
@pytest.mark.parametrize("nrows, ncols, rank", BACK_BLOCK_CASES)
def test_dense_rref_and_kernel_past_one_back_block(p, nrows, ncols, rank):
    rng = np.random.default_rng(nrows * ncols + rank)
    b = rng.integers(0, p, (nrows, rank)).astype(object)
    rows = (b @ rng.integers(0, p, (rank, ncols)).astype(object) % p).tolist()
    m = Mat.from_rows(FieldSpec.prime(p), rows, ncols)
    assert m.rows is None
    want_red, want_piv = _ref_rref(rows, ncols, p)
    assert len(want_piv) == rank > linalg._BACK_BLOCK
    red, piv = m.rref()
    assert piv == want_piv and to_lists(red) == want_red
    assert m.rank() == rank
    assert to_lists(m.kernel_basis()) == _ref_kernel(rows, ncols, p)


def _check_split_against_reference(rows, ncols, p):
    # the relations e_struct reads off one elimination, here of a
    # one-variable module whose single action is E: the rows of E split into
    # independent rows J, chosen greedily from the last, and the others D,
    # with E_D = C @ E_J; E_J @ W = I with W zero on the free columns of
    # rref(E); and the rows of K span the kernel of E, the identity on those
    # columns
    fld = QQ if p is None else FieldSpec.prime(p)
    norm = _normaliser(p)
    e = Mat.from_rows(fld, rows, ncols)
    mod = FiniteGradedModule(RingCtx(1), fld, 0, 1, [len(rows), ncols], [[e]])
    rows_j, rows_d, c, w, k = ModuleSource(mod, mod).e_struct(0)
    want_red, want_piv = _ref_rref(rows, ncols, p)
    free = [u for u in range(ncols) if u not in want_piv]
    assert len(rows_j) == len(want_piv)
    assert sorted(rows_j + rows_d) == list(range(len(rows)))
    assert rows_j == sorted(rows_j, reverse=True)
    assert rows_d == sorted(rows_d, reverse=True)
    for i in range(len(rows)):  # row i is in J iff it is outside the span of the later rows
        later = len(_ref_rref(rows[i + 1:], ncols, p)[1])
        assert (i in rows_j) == (len(_ref_rref(rows[i:], ncols, p)[1]) > later)
    e_j = e.take_rows(rows_j)
    assert e.take_rows(rows_d) == c.matmul(e_j)
    assert e_j.matmul(w) == Mat.identity(fld, len(rows_j))
    assert w.take_rows(free).is_zero()
    assert e.matmul(k.transpose()).is_zero()
    assert to_lists(k) == [[int(u == f) if u in free else norm(-want_red[want_piv.index(u)][f])
                            for u in range(ncols)] for f in free]
    for out in (c, w, k):
        _assert_stored_form(out)


@settings(max_examples=200, deadline=None)
@given(matrices([None, 2, 3, DEFAULT_PRIME, 94906249], 6))
def test_row_split_matches_python_reference(case):
    _check_split_against_reference(*case)


@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_prime_field_eliminations_take_both_paths(kind, monkeypatch):
    # storage picks the path: a GF(p) matrix at most 1/20 nonzero, as in the
    # sparse kind of `matrices`, is stored on sparse rows and eliminated there
    # (_rref_rows); a denser one is stored as an array and takes the dense
    # path (_rref_p).  The reference checks reach both, and so does its
    # product with the identity: on rows (_sparse_mul) in the sparse kind, on
    # BLAS (_matmul_mod) in the dense one
    p = DEFAULT_PRIME
    rng = np.random.default_rng(3)
    if kind == "sparse":  # 18 nonzeros in 12 x 40
        rows = [[0] * 40 for _ in range(12)]
        for i, r in enumerate(rows):
            for j in rng.choice(40, size=1 + i % 2, replace=False):
                r[j] = int(rng.integers(1, p))
    else:
        rows = rng.integers(0, p, size=(7, 7)).tolist()
    calls = {"_rref_rows": 0, "_rref_p": 0, "_sparse_mul": 0, "_matmul_mod": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(linalg, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(linalg, name, counted)
    m = Mat.from_rows(FieldSpec.prime(p), rows)
    assert (m.rows is not None) == (kind == "sparse")
    assert m.matmul(Mat.identity(m.field, m.ncols)) == m
    _check_against_reference(rows, len(rows[0]), p)
    _check_split_against_reference(rows, len(rows[0]), p)
    ran, idle = ("_rref_rows", "_rref_p") if kind == "sparse" else ("_rref_p", "_rref_rows")
    assert calls[ran] > 0 and calls[idle] == 0
    assert calls["_sparse_mul" if kind == "sparse" else "_matmul_mod"] > 0


@pytest.mark.parametrize("e, shape, rank", [(-1, (74, 54), 32), (-2, (427, 27), 27)])
def test_captured_constraint_matrices_match_python_reference(e, shape, rank, monkeypatch):
    # the constraint matrices of a generic (1,4,7,2) ideal over QQ, entries of
    # about 300 bits: at e = -1 the rank is short of full (its left kernel
    # lifts from several primes and is checked), at e = -2 it is full (mod-p
    # shortcut).  The solve ends in the one Mat.rank call on its constraint
    # matrix, which captures it
    ideal = generic_ideal_with_hilbert_function(RingCtx(4), QQ, (1, 4, 7, 2), seed=3)
    captured = []
    mat_rank = Mat.rank
    monkeypatch.setattr(Mat, "rank", lambda m: captured.append(m) or mat_rank(m))
    nested_tangent_graded(Nesting([ideal]), e)
    monkeypatch.undo()
    (cons,) = captured
    assert (cons.nrows, cons.ncols) == shape
    rows = to_lists(cons)
    want_red, want_piv = _ref_rref(rows, cons.ncols, None)
    assert len(want_piv) == rank == cons.rank()
    red, piv = cons.rref()
    assert piv == want_piv and to_lists(red) == want_red
    assert to_lists(cons.kernel_basis()) == _ref_kernel(rows, cons.ncols, None)


# ---------------------------- GF(p) kernels against the relations of the rows


def _left_kernel_of_transpose(m: Mat) -> Mat:
    """The kernel of m as the left kernel of its transpose, read off the
    reduced [m^T | identity]: a separate elimination from the forward
    passes of ``_kernel_p``, and the oracle of the checks below."""
    return m.transpose().rref_with_transform()[3]


def _combined_rows(rng, p: int, nrows: int, ncols: int, rank: int, sparse: bool) -> list:
    """nrows rows, each a random combination of two of `rank` random basis
    rows, so the rank is at most `rank`.  Sparse basis rows have one or two
    nonzeros, so for ncols >= 80 the matrix is at most 1/20 nonzero."""
    if rank == 0:
        return [[0] * ncols for _ in range(nrows)]
    basis = np.zeros((rank, ncols), np.int64)
    for b in basis:
        cols = rng.choice(ncols, size=int(rng.integers(1, 3)) if sparse else ncols, replace=False)
        b[cols] = rng.integers(1, p, size=len(cols))
    pick, coef = rng.integers(0, rank, size=(nrows, 2)), rng.integers(0, p, size=(nrows, 2))
    return ((coef[:, :1] * basis[pick[:, 0]] % p + coef[:, 1:] * basis[pick[:, 1]]) % p).tolist()


# (form, rows, columns, rank bound): tall ones span several row blocks of
# the forward passes (max(2 n, _RANK_BLOCK / n) rows), and a wide one has
# more free columns than pivots
KERNEL_CASES = [
    ("dense", 1500, 120, 100),
    ("sparse", 3000, 100, 90),
    ("dense", 30, 200, 20),
    ("sparse", 30, 200, 20),
    ("dense", 7, 9, 4),
    ("sparse", 50, 80, 0),   # the zero matrix
    ("dense", 60, 40, 40),   # full column rank
    ("sparse", 0, 25, 0),    # no rows
]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 94906249])
@pytest.mark.parametrize("form, nrows, ncols, rank", KERNEL_CASES)
def test_prime_field_kernel_matches_the_row_split(p, form, nrows, ncols, rank):
    rng = np.random.default_rng(nrows * ncols + rank)
    fld = FieldSpec.prime(p)
    if (form, rank) == ("dense", ncols):  # random and square or taller: full rank
        rows = rng.integers(0, p, size=(nrows, ncols)).tolist()
    else:
        rows = _combined_rows(rng, p, nrows, ncols, rank, form == "sparse")
    m = Mat.from_rows(fld, rows, ncols)
    assert (m.rows is not None) == (form == "sparse")
    step = max(2 * ncols, linalg._RANK_BLOCK // ncols)  # the rows of a block
    assert nrows <= 2 * ncols or nrows > 2 * step  # a tall case spans three blocks
    ker = m.kernel_basis()
    r = m.rank()
    assert ker.nrows == ncols - r
    assert (r == ncols) == (form == "dense" and rank == ncols)
    # M K^T = 0, an identity block on the free columns, and the left kernel
    # of M^T; the transform of an array shares the free-column solve, so the
    # small arrays are also checked against the pure-Python kernel
    assert m.matmul(ker.transpose()).is_zero()
    want = _left_kernel_of_transpose(m)
    free = [min(want.row_items(i)) for i in range(want.nrows)]  # its leading columns
    assert ker.take_cols(free) == Mat.identity(fld, len(free))
    assert ker == want
    if form == "dense" and nrows * ncols <= 6000:
        assert to_lists(ker) == _ref_kernel(rows, ncols, p)
    _assert_stored_form(ker)
    # the same rows stacked in parts, the first narrower than the rest:
    # padded with zero columns, as the tangent solves stack their blocks
    wide = Mat.hstack(fld, [m, Mat.zeros(fld, nrows, 3)])
    parts = [m.take_rows(range(nrows // 3)), wide.take_rows(range(nrows // 3, nrows))]
    stacked = Mat.zeros(fld, 0, ncols + 3).kernel_basis(*parts)
    assert stacked == wide.kernel_basis() == _left_kernel_of_transpose(wide)
