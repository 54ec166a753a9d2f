import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.ideals import (CutoffTooSmall,
                             InfeasibleHilbertFunction,
                             _macaulay_bound, Nesting, NotMPrimary,
                             NotNested, family_8points, family_delta,
                             family_delta_generators, family_I1, family_I2,
                             family_j_generators, family_twisted_cubic_cone,
                             generic_ideal_with_hilbert_function,
                             ideal_from_generators, power_of_max_ideal,
                             quotient_module, subquotient_module, zero_ideal)
from nesthilb.linalg import FieldSpec, QQ
from nesthilb.parsing import parse_polynomial
from nesthilb.ring import HomogeneousElement, RingCtx, scatter_rows
from nesthilb.verify import sharpness_ideal

from mat_lists import to_lists

FP = FieldSpec.prime(32003)


def _gens(ctx, fld, *texts):
    return [parse_polynomial(t, ctx, fld) for t in texts]


def test_linear_ideal_has_trivial_quotient():
    ctx = RingCtx(2)
    ideal = ideal_from_generators(ctx, QQ, _gens(ctx, QQ, "x1", "x2"), cutoff=2)
    assert ideal.dim_at(1) == 2 and ideal.dim_at(2) == 3
    assert tuple(ideal.hilbert_function().entries) == (1,)


def test_determinantal_families():
    ctx = RingCtx(4)
    i2 = family_I2(ctx, QQ)
    assert tuple(i2.hilbert_function().entries) == (1, 4, 2)
    assert i2.generator_degrees() == {2: 8}
    delta = family_delta(ctx, QQ, cutoff=6)
    h = delta.hilbert_function()
    assert h.truncated
    assert all(h(i) == 4 for i in range(1, 7))
    assert not delta.is_m_primary
    with pytest.raises(NotMPrimary):
        h.size  # colength undefined for truncations


def _minors_text(rows):
    """The 2x2 minors of a two-row matrix of variable names, as text."""
    top, bottom = rows
    return [f"{top[a]}*{bottom[b]} - {bottom[a]}*{top[b]}"
            for a in range(len(top)) for b in range(a + 1, len(top))]


def _delta_text(n):
    xs = [f"x{k}" for k in range(1, n + 1)]
    return _minors_text([xs, xs[-1:] + xs[:-1]])


def _j_text(n):
    return [f"x{n}*(x{i} + x{n - 1})" for i in range(1, n - 1)]


def _i1_text(n, s):
    return ([f"x{a}*x{b}" for a in range(1, s + 1) for b in range(a, s + 1)]
            + [f"x{c}" for c in range(s + 1, n + 1)])


@pytest.mark.parametrize("fld", [QQ, FP])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_family_generators_match_their_formulas(n, fld):
    # each generator, in order, against the formula read by the parser
    ctx = RingCtx(n)
    assert family_delta_generators(ctx, fld) == _gens(ctx, fld, *_delta_text(n))
    assert family_j_generators(ctx, fld) == _gens(ctx, fld, *_j_text(n))


SHARPNESS_TEXT = ([f"x4*x{a}*x{b}" for a in range(1, 5) for b in range(a, 5)]
                  + [f"{q}*x{v}" for q in ("x1*x3", "x2*x3", "x2^2") for v in range(1, 5)]
                  + ["x1^4", "x3^5"])


@pytest.mark.parametrize("fld", [QQ, FP])
@pytest.mark.parametrize("n,build,texts,cutoff", [
    (4, lambda ctx, fld: family_I1(ctx, fld, 2), _i1_text(4, 2), None),
    (6, lambda ctx, fld: family_I1(ctx, fld, 3), _i1_text(6, 3), None),
    (7, lambda ctx, fld: family_I1(ctx, fld, 5), _i1_text(7, 5), None),
    (4, family_I2, _delta_text(4) + _j_text(4), None),
    (6, family_I2, _delta_text(6) + _j_text(6), None),
    (4, family_8points,
     ["x1^2", "x1*x3", "x3^2", "x2^2", "x2*x4", "x4^2", "x1*x4 - x2*x3"], None),
    (4, lambda ctx, fld: family_twisted_cubic_cone(ctx, fld, cutoff=4),
     _minors_text([["x1", "x2", "x3"], ["x2", "x3", "x4"]]), 4),
    (4, lambda ctx, fld: sharpness_ideal(fld)[2], SHARPNESS_TEXT, None),
], ids=["I1:4,2", "I1:6,3", "I1:7,5", "I2:4", "I2:6", "8points", "twistedcone",
        "sharpness"])
def test_family_ideals_match_their_formulas(n, build, texts, cutoff, fld):
    ctx = RingCtx(n)
    want = ideal_from_generators(ctx, fld, _gens(ctx, fld, *texts), cutoff=cutoff)
    assert build(ctx, fld).equals(want)


def test_profiles_are_zero_in_negative_degrees():
    # a truncated profile covers every degree below its cutoff, negative ones too
    ctx = RingCtx(4)
    delta = family_delta(ctx, QQ, cutoff=3)
    h = delta.hilbert_function()
    assert h.truncated and h(-1) == 0 and h(3) == 4
    assert delta.dim_at(-1) == 0 and ctx.dim(-1) == 0
    assert family_I2(ctx, QQ).hilbert_function()(-1) == 0
    with pytest.raises(CutoffTooSmall):
        h(4)


def test_quotient_module_refuses_a_truncated_ideal():
    with pytest.raises(NotMPrimary):
        quotient_module(family_delta(RingCtx(4), QQ, cutoff=4))


def test_power_of_max_ideal_profiles():
    ctx = RingCtx(3)
    assert tuple(power_of_max_ideal(ctx, QQ, 1).hilbert_function().entries) == (1,)
    m2 = power_of_max_ideal(ctx, QQ, 2)
    assert tuple(m2.hilbert_function().entries) == (1, 3)
    assert m2.colength() == 4
    assert power_of_max_ideal(ctx, QQ, 5).colength() == 35


def test_hilbert_function_fixtures():
    ctx = RingCtx(4)
    i1 = family_I1(ctx, QQ, 2)
    assert tuple(i1.hilbert_function().entries) == (1, 2)
    z = family_8points(ctx, QQ)
    assert tuple(z.hilbert_function().entries) == (1, 4, 3)
    assert z.colength() == 8


def test_containment_fixtures():
    ctx = RingCtx(4)
    z = family_8points(ctx, QQ)
    cone = family_twisted_cubic_cone(ctx, QQ, cutoff=3)
    assert z.contains(cone)
    assert z.contains(power_of_max_ideal(ctx, QQ, 5))
    assert z.contains(z)
    assert not cone.is_m_primary
    with pytest.raises(CutoffTooSmall):
        cone.contains(z)  # truncation cannot certify containing an m-primary ideal


def test_contains_element():
    ctx = RingCtx(4)
    z = family_8points(ctx, QQ)
    det = parse_polynomial("x1*x4 - x2*x3", ctx, QQ)
    assert z.contains_element(det)
    assert not z.contains_element(parse_polynomial("x1*x2", ctx, QQ))


def test_subquotient_dims_from_explicit_pair():
    _, outer, inner = sharpness_ideal(QQ)
    ctx = outer.ctx
    m3 = power_of_max_ideal(ctx, QQ, 3)
    top = subquotient_module(m3, inner)
    assert (top.lo, top.hi) == (3, 4)
    assert top.dims == [3, 2]
    bottom = subquotient_module(outer, m3)
    assert bottom.dims[bottom.lo - bottom.lo] == 10 and sum(bottom.dims) == 10
    assert top.check_commuting() and bottom.check_commuting()
    with pytest.raises(NotNested):
        subquotient_module(inner, m3)  # containment goes the other way


def test_quotient_module_of_unit_like_ideal():
    ctx = RingCtx(3)
    m = power_of_max_ideal(ctx, QQ, 1)
    mod = quotient_module(m)
    assert mod.dims == [1]
    assert mod.check_commuting()


@pytest.mark.parametrize("build", [
    lambda: family_8points(RingCtx(4), QQ),
    lambda: generic_ideal_with_hilbert_function(RingCtx(3), FP, (1, 3, 6, 5), seed=9),
    lambda: power_of_max_ideal(RingCtx(2), FP, 0),
])
def test_quotient_module_matches_the_subquotient_of_the_unit_ideal(build):
    # R/I from the ideal's own quotient actions, against A/B with A = R
    ideal = build()
    top = max(ideal.socle_degree, 0)
    unit = ideal_from_generators(ideal.ctx, ideal.fld, _gens(ideal.ctx, ideal.fld, "1"),
                                 cutoff=top)
    mod, ref = quotient_module(ideal), subquotient_module(unit, ideal)
    assert (mod.lo, mod.hi, mod.dims) == (ref.lo, ref.hi, ref.dims)
    assert mod.top == ref.top == ideal.socle_degree
    for d in range(mod.lo - 1, mod.hi + 1):
        for j in range(ideal.ctx.n):
            assert mod.action(j, d) == ref.action(j, d)


def test_action_above_the_cutoff():
    # above the cutoff an m-primary ideal is all of R_{d+1}: the coordinates
    # of x_j * I_d are its entries; a truncated ideal refuses
    ctx = RingCtx(3)
    m2 = power_of_max_ideal(ctx, QQ, 2)
    assert m2.cutoff == 2
    assert m2.action(1, 2) == scatter_rows(ctx, m2.basis_at(2)[0], 1, 2)
    assert m2.action(1, 3) == scatter_rows(ctx, m2.basis_at(3)[0], 1, 3)
    cone = family_twisted_cubic_cone(RingCtx(4), QQ, cutoff=3)
    cone.action(0, 2)
    with pytest.raises(CutoffTooSmall):
        cone.action(0, 3)


@pytest.mark.parametrize("fld", [QQ, FP])
def test_generic_ideal_reproduces_profile(fld):
    ctx = RingCtx(4)
    q = (1, 4, 10, 18, 10)
    ideal = generic_ideal_with_hilbert_function(ctx, fld, q, seed=12)
    assert tuple(ideal.hilbert_function().entries) == q
    assert ideal.is_m_primary


def test_generic_compressed_profile_is_quadrics_plus_cube():
    # profile (1, n, 2): a codimension-2 space of quadrics plus all cubics
    ctx = RingCtx(4)
    ideal = generic_ideal_with_hilbert_function(ctx, QQ, (1, 4, 2), seed=3)
    assert ideal.dim_at(2) == ctx.dim(2) - 2
    assert ideal.dim_at(1) == 0
    assert ideal.contains(power_of_max_ideal(ctx, QQ, 3))


def test_generic_trivial_and_infeasible_cases():
    ctx = RingCtx(3)
    m = generic_ideal_with_hilbert_function(ctx, QQ, (1,), seed=99)
    assert m.equals(power_of_max_ideal(ctx, QQ, 1))
    with pytest.raises(InfeasibleHilbertFunction):
        generic_ideal_with_hilbert_function(RingCtx(4), QQ, (1, 4, 10, 18, 10, 1), seed=3)


def test_generic_ideal_deterministic_across_fields():
    qq = generic_ideal_with_hilbert_function(RingCtx(3), QQ, (1, 3, 4), seed=5)
    fp = generic_ideal_with_hilbert_function(RingCtx(3), FP, (1, 3, 4), seed=5)
    a = to_lists(qq.bases[2])
    b = to_lists(fp.bases[2])
    assert len(a) == len(b)  # same shape; entries agree after reduction


PROFILES = st.sampled_from([
    (2, (1, 2, 2)), (2, (1, 2, 3, 2)), (3, (1, 3, 4)), (3, (1, 3, 5, 2)),
    (3, (1, 3, 6, 8, 4)), (4, (1, 4, 3)), (4, (1, 4, 6)),
])


@settings(max_examples=25, deadline=None)
@given(PROFILES, st.integers(min_value=0, max_value=50))
def test_generated_ideals_are_closed_under_multiplication(profile, seed):
    n, q = profile
    ctx = RingCtx(n)
    ideal = generic_ideal_with_hilbert_function(ctx, FP, q, seed=seed)
    for d in range(ideal.cutoff):
        basis, _ = ideal.basis_at(d)
        nxt, piv = ideal.basis_at(d + 1)
        for j in range(n):
            moved = scatter_rows(ctx, basis, j, d)
            resid = moved.sub(moved.take_cols(piv).matmul(nxt))
            assert resid.is_zero()
    assert tuple(ideal.hilbert_function().entries) == q


def test_nesting_validation():
    ctx = RingCtx(4)
    i1 = family_I1(ctx, QQ, 2)
    i2 = family_I2(ctx, QQ)
    nest = Nesting([i1, i2])
    assert nest.colengths == [3, 7]
    with pytest.raises(NotNested):
        Nesting([i2, i1])
    with pytest.raises(NotMPrimary):
        Nesting([family_delta(ctx, QQ, cutoff=4)])


def test_zero_ideal_subquotient_window():
    ctx = RingCtx(3)
    m2 = power_of_max_ideal(ctx, QQ, 2)
    mod = subquotient_module(m2, zero_ideal(ctx, QQ, cutoff=4), hi=4)
    assert mod.dims == [6, 10, 15]
    assert mod.check_commuting()


# ----------------------------------------- non-m-primary ideals stop early


@pytest.mark.parametrize("a, d, want", [
    (0, 3, 0), (1, 1, 1), (1, 5, 1),
    (3, 1, 6),     # 3 = C(3,1) -> C(4,2)
    (2, 2, 2),     # 2 = C(2,2) + C(1,1) -> C(3,3) + C(2,2)
    (4, 2, 5),     # 4 = C(3,2) + C(1,1) -> C(4,3) + C(2,2)
    (7, 2, 11),    # 7 = C(4,2) + C(1,1) -> C(5,3) + C(2,2)
    (10, 2, 20),   # all of R_2 in four variables -> all of R_3
    (13, 2, 26),   # 13 = C(5,2) + C(3,1) -> C(6,3) + C(4,2)
    (5, 3, 6),     # 5 = C(4,3) + C(2,2) -> C(5,4) + C(3,3)
    (10, 3, 15),   # 10 = C(5,3) -> C(6,4)
])
def test_macaulay_bound_matches_hand_computed_values(a, d, want):
    assert _macaulay_bound(a, d) == want


def test_a_non_m_primary_family_is_refused_at_once():
    # over F_2 the quadrics of I2:8 leave h = (1, 8, 2, 1, 1, ...): h(4) =
    # h(3)^<3> = 1 past the generators, so by Gotzmann's persistence h never
    # reaches 0, and the build stops at degree 4 instead of the ceiling
    ctx, f2 = RingCtx(8), FieldSpec.prime(2)
    with pytest.raises(NotMPrimary, match="Gotzmann"):
        family_I2(ctx, f2)
    gens = family_delta_generators(ctx, f2) + family_j_generators(ctx, f2)
    ideal = ideal_from_generators(ctx, f2, gens)
    assert ideal.cutoff == 4 and str(ideal.hilbert_function()) == "(1,8,2,1,1,...)"


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_m_primary_fixtures_are_unchanged_by_the_persistence_stop(fld):
    for n in range(4, 9):
        ctx = RingCtx(n)
        assert tuple(family_I2(ctx, fld).hilbert_function().entries) == (1, n, 2)
        for s in range(2, n - 1):
            assert tuple(family_I1(ctx, fld, s).hilbert_function().entries) == (1, s)
    assert tuple(family_8points(RingCtx(4), fld).hilbert_function().entries) == (1, 4, 3)
    assert tuple(sharpness_ideal(fld)[2].hilbert_function().entries) == (1, 4, 10, 3, 2)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3]), st.sampled_from([QQ, FieldSpec.prime(2), FP]))
def test_the_persistence_stop_agrees_with_a_longer_build(data, n, fld):
    # random binomial generators of degree 1..3: a build that stops where
    # h persists is a prefix of one built 4 degrees further, which is not
    # m-primary and keeps h(k + 1) = h(k)^<k> on those degrees; an m-primary
    # build is the same ideal as the longer one
    ctx = RingCtx(n)

    def monomial(d):
        return tuple(data.draw(st.lists(st.integers(0, d), min_size=n, max_size=n)
                               .filter(lambda e: sum(e) == d)))

    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        d = data.draw(st.integers(1, 3))
        terms = {monomial(d): 1}
        if data.draw(st.booleans()):
            other = monomial(d)
            terms[other] = terms.get(other, 0) + data.draw(st.integers(-2, 2))
        gens.append(HomogeneousElement.from_exponents(ctx, fld, d, terms))
    built = ideal_from_generators(ctx, fld, gens)
    longer = ideal_from_generators(ctx, fld, gens, cutoff=built.cutoff + 4)
    assert built.is_m_primary == longer.is_m_primary
    if built.is_m_primary:
        assert built.hilbert_function() == longer.hilbert_function()
        return
    h, hl = built.hilbert_function(), longer.hilbert_function()
    assert hl.entries[:len(h)] == h.entries and hl(longer.cutoff) > 0
    assert all(hl(k + 1) == _macaulay_bound(hl(k), k)
               for k in range(built.cutoff - 1, longer.cutoff))
