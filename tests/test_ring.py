import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.linalg import FieldSpec, Mat, QQ
from nesthilb.parsing import parse_polynomial
from nesthilb.ring import (HomogeneousElement, RingCtx, mult_map, scatter_rows,
                           variable_action_matrices)

from mat_lists import to_lists

FP = FieldSpec.prime(32003)


def test_dim_graded_piece_examples():
    assert RingCtx(3).dim(0) == 1
    assert RingCtx(3).dim(4) == 15
    assert RingCtx(2).dim(3) == 4


def test_hilbert_series_matches_geometric_expansion():
    # (1-t)^n * sum dim R_d t^d == 1 up to the cutoff
    for n in (1, 2, 3, 5):
        ctx = RingCtx(n)
        cutoff = 8
        series = [ctx.dim(d) for d in range(cutoff + 1)]
        from math import comb

        prod = [sum((-1) ** k * comb(n, k) * series[d - k]
                    for k in range(0, min(n, d) + 1)) for d in range(cutoff + 1)]
        assert prod == [1] + [0] * cutoff


def test_grlex_order_is_fixed():
    assert RingCtx(2).monomials(2) == ((2, 0), (1, 1), (0, 2))
    assert RingCtx(3).monomials(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_mult_map_examples():
    ctx = RingCtx(2)
    x1 = HomogeneousElement.variable(ctx, QQ, 0)
    m = mult_map(ctx, x1, 1)
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.rank() == 2
    zero = HomogeneousElement(ctx, QQ, 2, {})
    assert mult_map(ctx, zero, 1).is_zero()
    cancel = parse_polynomial("x1*x2 - x2*x1", ctx, QQ)
    assert cancel.is_zero()
    assert mult_map(ctx, cancel, 3).is_zero()


def test_variable_actions_and_commutation():
    ctx1 = RingCtx(1)
    acts = variable_action_matrices(ctx1, QQ, 5)
    assert to_lists(acts[0]) == [[1]]

    ctx2 = RingCtx(2)
    acts0 = variable_action_matrices(ctx2, QQ, 0)
    assert [to_lists(a) for a in acts0] == [[[1, 0]], [[0, 1]]]

    ctx3 = RingCtx(3)
    a = variable_action_matrices(ctx3, QQ, 2)
    b = variable_action_matrices(ctx3, QQ, 3)
    for i in range(3):
        for j in range(3):
            assert a[i].matmul(b[j]) == a[j].matmul(b[i])


@pytest.mark.parametrize("fld", [QQ, FP])
def test_scatter_rows_is_the_variable_action(fld):
    ctx = RingCtx(3)
    m = Mat.from_rows(fld, [[1, 0, -2, 0, 5, 0], [0, 3, 0, 0, 0, -1], [0] * 6])
    acts = variable_action_matrices(ctx, fld, 2)
    for j in range(ctx.n):
        assert scatter_rows(ctx, m, j, 2) == m.matmul(acts[j])
    empty = Mat.zeros(fld, 0, ctx.dim(2))
    assert scatter_rows(ctx, empty, 0, 2) == Mat.zeros(fld, 0, ctx.dim(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2),
       st.data())
def test_mult_map_is_additive(n, d, data):
    ctx = RingCtx(n)
    a = data.draw(st.integers(min_value=1, max_value=2))
    monos = ctx.monomials(a)
    coeffs1 = data.draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                                 max_size=len(monos)))
    coeffs2 = data.draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                                 max_size=len(monos)))
    f = HomogeneousElement.from_exponents(ctx, QQ, a,
                                          dict(zip(monos, coeffs1)))
    g = HomogeneousElement.from_exponents(ctx, QQ, a,
                                          dict(zip(monos, coeffs2)))
    fg = HomogeneousElement.from_exponents(
        ctx, QQ, a, {m: c1 + c2 for m, c1, c2 in zip(monos, coeffs1, coeffs2)})
    lhs = mult_map(ctx, fg, d)
    rhs_a, rhs_b = mult_map(ctx, f, d), mult_map(ctx, g, d)
    assert lhs.sub(rhs_a).sub(rhs_b).is_zero()


@pytest.mark.parametrize("fld", [QQ, FP])
def test_element_printing_roundtrip(fld):
    ctx = RingCtx(3)
    f = parse_polynomial("2*x1^2 - x2*x3 + 5*x3^2", ctx, fld)
    again = parse_polynomial(str(f), ctx, fld)
    assert again.coeffs == f.coeffs and again.degree == f.degree


def test_scalars_are_exact_or_refused():
    # coefficients go through the same conversion as matrix entries
    from fractions import Fraction

    from nesthilb.linalg import LinalgError
    from nesthilb.ring import _scalar

    f7 = FieldSpec.prime(7)
    assert _scalar(f7, Fraction(1, 2)) == 4
    assert _scalar(f7, 14) is None
    assert _scalar(QQ, Fraction(2, 4)) == Fraction(1, 2)
    assert _scalar(QQ, 0) is None
    for fld, bad in ((f7, Fraction(1, 7)), (f7, 0.5), (QQ, 0.1), (QQ, 2.0)):
        with pytest.raises(LinalgError):
            _scalar(fld, bad)
