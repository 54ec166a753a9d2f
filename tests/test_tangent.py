import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.ideals import (HomogeneousIdeal, Nesting, family_8points,
                             family_I1, family_I2,
                             generic_ideal_with_hilbert_function,
                             power_of_max_ideal, quotient_module,
                             subquotient_module, zero_ideal)
from nesthilb.linalg import FieldSpec, Mat, QQ
from nesthilb.parsing import parse_nesting_spec
from nesthilb.ring import RingCtx
from nesthilb.tangent import (NotStrictlySandwiched, TNT_CERTIFIED,
                              TNT_FAILED_PRIME, TNT_FAILED_RATIONAL,
                              TNT_NOT_ASSESSED,
                              check_tangent_blocks, graded_hom_dims,
                              hom_dim_via_syzygies, nested_tangent_graded,
                              sandwich_identity_check, sandwich_insert,
                              tangent_graded, tangent_window, theta_blocks,
                              theta_rank, tnt_check)
from nesthilb.verify import sharpness_ideal

FP = FieldSpec.prime(32003)


def test_tangent_at_the_maximal_ideal():
    ctx = RingCtx(3)
    m = power_of_max_ideal(ctx, QQ, 1)
    assert tangent_graded(m, -1) == 3
    rep = tnt_check(Nesting([m]))
    assert rep.degrees == {-1: 3} and rep.theta_rank == 3
    assert rep.tnt == TNT_CERTIFIED


def test_square_of_max_ideal_two_vars_fails_tnt():
    ctx = RingCtx(2)
    m2 = power_of_max_ideal(ctx, QQ, 2)
    assert tangent_graded(m2, -1) == 6  # Hom_C(R_2, R_1)
    assert tangent_graded(m2, -2) == 0
    rep = tnt_check(Nesting([m2]))
    assert rep.theta_rank == 2 and rep.tnt == TNT_FAILED_RATIONAL
    rep_p = tnt_check(Nesting([power_of_max_ideal(ctx, FP, 2)]))
    assert rep_p.tnt == TNT_FAILED_PRIME


@pytest.mark.parametrize("spec, e_range", [("8points", (0, 0)), ("I1:4,2 > I2:4", (-1, -1))])
def test_tnt_check_gives_no_verdict_outside_its_window(spec, e_range):
    # the verdict needs every degree from the window's lowest to -1
    nest = parse_nesting_spec(spec, QQ)
    full = tnt_check(nest)
    assert full.tnt == TNT_CERTIFIED
    part = tnt_check(nest, e_range=e_range)
    assert part.tnt == TNT_NOT_ASSESSED
    assert part.degrees == {e: full.degrees[e] for e in range(e_range[0], e_range[1] + 1)}
    assert part.theta_rank == full.theta_rank
    covering = tnt_check(nest, e_range=(tangent_window(nest)[0], -1))
    assert covering.tnt == TNT_CERTIFIED


def test_hom_of_residue_field_with_itself():
    ctx = RingCtx(2)
    m = power_of_max_ideal(ctx, QQ, 1)
    k = quotient_module(m)  # one-dimensional in degree zero
    assert graded_hom_dims(k, k) == {0: 1}


def test_power_truncation_hom_matches_bilinear_count():
    # Hom_R(m^k, R/m^k) is concentrated in degree -1 with dimension
    # dim R_k * dim R_{k-1}
    ctx = RingCtx(2)
    mk = power_of_max_ideal(ctx, QQ, 2)
    source = subquotient_module(mk, zero_ideal(ctx, QQ, cutoff=5), hi=5)
    target = quotient_module(mk)
    dims = graded_hom_dims(source, target)
    assert dims == {-1: 6}


def test_nested_r1_reduces_to_single():
    ctx = RingCtx(4)
    z = family_8points(ctx, QQ)
    for e in range(-3, 2):
        assert nested_tangent_graded(Nesting([z]), e) == tangent_graded(z, e)


def test_chain_with_equal_ideals_diagonalises():
    ctx = RingCtx(3)
    m = power_of_max_ideal(ctx, QQ, 1)
    assert nested_tangent_graded(Nesting([m, m]), -1) == 3


def test_maximal_over_square_has_unconstrained_sum():
    # the remark formula needs TNT; m^2 lacks it, and the degree -1 space of
    # [m > m^2] is the full product n + dim Hom(m^2, R/m^2)_{-1}
    ctx = RingCtx(3)
    m = power_of_max_ideal(ctx, QQ, 1)
    m2 = power_of_max_ideal(ctx, QQ, 2)
    assert tangent_graded(m2, -1) == 18
    assert nested_tangent_graded(Nesting([m, m2]), -1) == 21


def test_theta_examples():
    ctx = RingCtx(3)
    assert theta_rank(Nesting([power_of_max_ideal(ctx, QQ, 1)])) == 3
    assert theta_rank(Nesting([power_of_max_ideal(RingCtx(2), QQ, 2)])) == 2
    ctx4 = RingCtx(4)
    nest = Nesting([family_I1(ctx4, QQ, 2), family_I2(ctx4, QQ)])
    assert theta_rank(nest) == 4


def test_theta_blocks_satisfy_all_constraints():
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, QQ, 2), family_I2(ctx, QQ)])
    for per_chain in theta_blocks(nest):
        assert check_tangent_blocks(nest, -1, per_chain)


def test_theta_check_builds_no_action_into_an_empty_target(monkeypatch):
    # the relation out of degree d at e = -1 lands in (R/I)_d: once that piece
    # is zero the relation is vacuous and its x_j action is never built
    ctx = RingCtx(6)
    nest = Nesting([family_I1(ctx, FP, 2), family_I2(ctx, FP)])
    built = []
    action = HomogeneousIdeal.action

    def recording(ideal, j, d):
        built.append((ideal, j, d))
        return action(ideal, j, d)

    monkeypatch.setattr(HomogeneousIdeal, "action", recording)
    assert theta_rank(nest) == 6
    assert built
    assert all(ideal.qdim(d) > 0 for ideal, _, d in built)


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_check_tangent_blocks_rejects_a_changed_entry(fld):
    # each changed entry sits on a basis row of I_d that lies in R_1 * I_{d-1},
    # so the relation out of degree d - 1 sees it; d runs up to socle + 1, the
    # last degree whose target (R/I)_{d-1} is non-empty
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, fld, 2), family_I2(ctx, fld)])
    theta = theta_blocks(nest)[0]
    changed = 0
    for k, ideal in enumerate(nest.ideals):
        for d in range(ideal.order + 1, ideal.socle_degree + 2):
            assert ideal.qdim(d - 1) > 0
            r = next(i for i, p in enumerate(ideal.pivots[d])
                     if p not in ideal.gen_pivots[d])
            block = theta[k][d]
            bad = [dict(blocks) for blocks in theta]
            bad[k][d] = block.sub(Mat.from_entries(fld, block.nrows, block.ncols,
                                                   [(r, 0, 1)]))
            assert not check_tangent_blocks(nest, -1, bad)
            changed += 1
    assert changed >= 2


FIXTURE_NESTS = [
    lambda fld: Nesting([power_of_max_ideal(RingCtx(3), fld, 2)]),
    lambda fld: Nesting([family_8points(RingCtx(4), fld)]),
    lambda fld: Nesting([family_I1(RingCtx(4), fld, 2), family_I2(RingCtx(4), fld)]),
]


@pytest.mark.parametrize("build", FIXTURE_NESTS)
def test_window_edges_vanish(build):
    nest = build(QQ)
    e_min, e_max = tangent_window(nest)
    assert nested_tangent_graded(nest, e_min - 1) == 0
    assert nested_tangent_graded(nest, e_max + 1) == 0


@pytest.mark.parametrize("build", FIXTURE_NESTS)
def test_prime_field_dimensions_match_rational(build):
    nq, np_ = build(QQ), build(FP)
    e_min, e_max = tangent_window(nq)
    for e in range(e_min, e_max + 1):
        assert nested_tangent_graded(nq, e) == nested_tangent_graded(np_, e)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(3, (1, 3, 4)), (3, (1, 3, 5, 2)), (2, (1, 2, 3, 2)),
                        (4, (1, 4, 3))]),
       st.integers(min_value=0, max_value=30))
def test_oracle_equivalence_random(profile, seed):
    n, q = profile
    ideal = generic_ideal_with_hilbert_function(RingCtx(n), FP, q, seed=seed)
    e_lo = -ideal.max_gen_degree
    e_hi = max(ideal.socle_degree - ideal.order, -1)
    for e in range(e_lo, e_hi + 1):
        assert tangent_graded(ideal, e) == hom_dim_via_syzygies(ideal, e)


def test_sandwich_insert_colengths():
    _, outer, inner = sharpness_ideal(QQ)
    nest = Nesting([outer, inner])
    enlarged = sandwich_insert(nest, 1, 3)
    assert [i.colength() for i in enlarged.ideals] == [5, 15, 20]

    ctx = RingCtx(4)
    pair = Nesting([family_I1(ctx, QQ, 2), family_I2(ctx, QQ)])
    assert [i.colength() for i in sandwich_insert(pair, 1, 2).ideals] == [3, 5, 7]

    single = Nesting([family_8points(ctx, QQ)])
    front = sandwich_insert(single, 0, 1)
    assert [i.colength() for i in front.ideals] == [1, 8]


def test_sandwich_insert_rejects_non_strict():
    _, outer, inner = sharpness_ideal(QQ)
    nest = Nesting([outer, inner])
    with pytest.raises(NotStrictlySandwiched):
        sandwich_insert(nest, 1, 2)  # m^2 equals the first ideal
    with pytest.raises(NotStrictlySandwiched):
        sandwich_insert(nest, 2, 2)  # m^2 does not sit inside the second


def test_sandwich_append_at_end():
    ctx = RingCtx(4)
    single = Nesting([family_8points(ctx, QQ)])
    app = sandwich_insert(single, 1, 5)  # only needs m^5 strictly inside
    assert [i.colength() for i in app.ideals] == [8, 70]


def test_remark_sandwich_defect_matches_h1():
    # [m > I] for a TNT ideal: the whole negative space is n + h(1), the
    # derivative span still has rank n
    ctx = RingCtx(4)
    ideal = generic_ideal_with_hilbert_function(ctx, FP, (1, 4, 3), seed=11)
    nest = Nesting([power_of_max_ideal(ctx, FP, 1), ideal])
    rep = tnt_check(nest)
    assert rep.t_at(-1) == 4 + 4
    assert rep.theta_rank == 4
    assert rep.t_neg - rep.theta_rank == ideal.hilbert_function()(1)


def test_sharpness_sandwich_report_conventions():
    _, outer, inner = sharpness_ideal(QQ)
    rep = sandwich_identity_check(Nesting([outer, inner]), 1, 3)
    assert not rep.hypotheses_met
    assert rep.base.t_at(-2) == 10 and rep.base.t_at(-3) == 8
    # degree -1 jump equals dim (R/I2)_3 * dim I1_2 = 3 * 10, the paper's
    # remaining unit sits in the enlarged degree -2 piece
    assert rep.jump_minus1 == rep.jump_formula_k_km1 == 30
    assert rep.enlarged.t_at(-2) == 1
    assert rep.enlarged.t_neg == rep.base.t_at(-1) + 30 + 1
    assert rep.identity_discrepancy == rep.enlarged.t_neg - rep.base.t_neg - rep.hom_total
    # forgetting the inserted power projects onto the original tangents
    assert rep.enlarged.t_at(-1) >= rep.base.t_at(-1)


def test_ex32_sandwich_with_square():
    ctx = RingCtx(4)
    pair = Nesting([family_I1(ctx, QQ, 2), family_I2(ctx, QQ)])
    rep = sandwich_identity_check(pair, 1, 2)
    assert rep.hypotheses_met
    assert rep.jump_minus1 == 2 * (4 - 2)  # h_{R/I2}(2) * dim I1_1
    assert rep.enlarged.t_at(-1) == 4 + 4
    assert rep.identity_discrepancy == 0
    assert rep.t_nonneg_unchanged
