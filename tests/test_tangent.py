import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.ideals import (HomogeneousIdeal, Nesting, family_8points,
                             family_I1, family_I2,
                             generic_ideal_with_hilbert_function,
                             power_of_max_ideal, quotient_module,
                             subquotient_module, zero_ideal)
from nesthilb.linalg import FieldSpec, Mat, QQ
from nesthilb.parsing import parse_nesting_spec
from nesthilb.strata import census
from nesthilb import tangent
from nesthilb.ring import RingCtx, diff_matrix
from nesthilb.tangent import (NotStrictlySandwiched, TNT_CERTIFIED,
                              TNT_FAILED_PRIME, TNT_FAILED_RATIONAL,
                              TNT_NOT_ASSESSED,
                              check_tangent_blocks, graded_hom_dims,
                              hom_dim_via_syzygies, nested_tangent_graded,
                              sandwich_identity_check, sandwich_insert,
                              tangent_graded, tangent_window, theta_rank,
                              theta_tables, tnt_check)
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


def test_theta_tables_satisfy_all_constraints():
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, QQ, 2), family_I2(ctx, QQ)])
    assert check_tangent_blocks(nest, theta_tables(nest))


def _block(table, d, k, fld):
    """Row k of table[d], unfolded to the s_d x t_d block it is vec of."""
    p, s, t = table[d]
    return Mat.from_entries(fld, s, t, [(a // t, a % t, v)
                                        for a, v in p.row_items(k).items()])


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_theta_tables_solve_the_defining_equations(fld):
    # the equations written out block by block with Mat.matmul, not through
    # the vec-row products: row j is d/dx_j projected to R/I, it commutes with
    # every x_i, and it agrees along the nesting
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, fld, 2), family_I2(ctx, fld)])
    tables = theta_tables(nest)
    for ideal, table in zip(nest.ideals, tables):
        assert sorted(table) == list(range(ideal.order, ideal.socle_degree + 2))
        for d in table:
            assert table[d][0].nrows == ctx.n
            assert table[d][1:] == (ideal.dim_at(d), ideal.qdim(d - 1))
            for j in range(ctx.n):
                deriv = ideal.basis_at(d)[0].matmul(diff_matrix(ctx, fld, j, d))
                want = ideal.quotient_structure(d - 1).project_rows(deriv)
                assert _block(table, d, j, fld) == want
        for d in range(ideal.order, ideal.socle_degree + 1):
            for j in range(ctx.n):
                cur, nxt = _block(table, d, j, fld), _block(table, d + 1, j, fld)
                for i in range(ctx.n):
                    lhs = ideal.action(i, d).matmul(nxt)
                    assert lhs == cur.matmul(ideal.quotient_action(i, d - 1))
    upper, lower = nest.ideals
    for d in range(lower.order, upper.socle_degree + 2):
        incl = upper.coords(lower.basis_at(d)[0], d)
        st_low, st_up = lower.quotient_structure(d - 1), upper.quotient_structure(d - 1)
        lift_project = st_up.project_rows(st_low.lift)
        for j in range(ctx.n):
            low = _block(tables[1], d, j, fld)
            assert incl.matmul(_block(tables[0], d, j, fld)) == low.matmul(lift_project)


def test_theta_rank_builds_each_action_once(monkeypatch):
    # the check applies each x_j action of I_d to all n derivations at once
    ctx = RingCtx(6)
    nest = Nesting([family_I1(ctx, FP, 2), family_I2(ctx, FP)])
    built = []
    action = HomogeneousIdeal.action

    def recording(ideal, j, d):
        built.append((id(ideal), j, d))
        return action(ideal, j, d)

    monkeypatch.setattr(HomogeneousIdeal, "action", recording)
    assert theta_rank(nest) == 6
    assert built and len(built) == len(set(built))


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


def _changed(tables, k, d, row, col, fld):
    """A copy of the tables with 1 subtracted at (row, col) of tables[k][d]."""
    bad = [dict(table) for table in tables]
    p, s, t = tables[k][d]
    bad[k][d] = (p.sub(Mat.from_entries(fld, p.nrows, p.ncols, [(row, col, 1)])), s, t)
    return bad


def _changed_entries(nest):
    """(ideal index k, degree d, basis row r) with row r of I_d's basis in
    R_1 * I_{d-1}, so that the relation out of degree d - 1 sees a change on
    that row; d runs up to socle + 1, the last degree whose target
    (R/I)_{d-1} is non-empty."""
    out = []
    for k, ideal in enumerate(nest.ideals):
        for d in range(ideal.order + 1, ideal.socle_degree + 2):
            assert ideal.qdim(d - 1) > 0
            r = next(i for i, p in enumerate(ideal.pivots[d])
                     if p not in ideal.gen_pivots[d])
            out.append((k, d, r))
    return out


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_check_tangent_blocks_rejects_a_changed_entry(fld):
    # one changed entry of the first derivation's block (r, 0) of I_d
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, fld, 2), family_I2(ctx, fld)])
    tables = theta_tables(nest)
    changed = 0
    for k, d, r in _changed_entries(nest):
        t = tables[k][d][2]
        assert not check_tangent_blocks(nest, _changed(tables, k, d, 0, r * t, fld))
        changed += 1
    assert changed >= 2


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_check_tangent_blocks_rejects_one_bad_row_among_valid_ones(fld):
    # every row is checked: a change in any single row fails the whole table,
    # while the other n - 1 rows stay valid derivations
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, fld, 2), family_I2(ctx, fld)])
    tables = theta_tables(nest)
    assert check_tangent_blocks(nest, tables)
    k, d, r = _changed_entries(nest)[-1]
    t = tables[k][d][2]
    for row in range(ctx.n):
        bad = _changed(tables, k, d, row, r * t + t - 1, fld)
        assert not check_tangent_blocks(nest, bad)
        others = [i for i in range(ctx.n) if i != row]
        rest = [{e: (p.take_rows(others), *shape) for e, (p, *shape) in table.items()}
                for table in bad]
        assert check_tangent_blocks(nest, rest)
    # rows 0 and 1 swapped in the lower ideal only: each ideal's rows still
    # commute with every x_j, and only the nesting link sees the swap
    swap = [1, 0] + list(range(2, ctx.n))
    lower = {e: (p.take_rows(swap), *shape) for e, (p, *shape) in tables[1].items()}
    assert check_tangent_blocks(Nesting([nest.ideals[1]]), [lower])
    assert not check_tangent_blocks(nest, [tables[0], lower])


def _family_ideals(fld):
    """m, I1:4,2 and I2:4, built afresh."""
    ctx = RingCtx(4)
    return power_of_max_ideal(ctx, fld, 1), family_I1(ctx, fld, 2), family_I2(ctx, fld)


# nestings of _family_ideals by index: their degrees and whether TNT holds;
# the theta rank is 4 for each
REUSE_PINS = {(0, 1): ({-2: 0, -1: 10, 0: 4}, False), (1, 2): ({-2: 0, -1: 4, 0: 20}, True),
              (1,): ({-2: 0, -1: 8, 0: 4}, False), (0, 1, 2): ({-2: 0, -1: 6, 0: 20}, False)}


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
@pytest.mark.parametrize("order", [[(0, 1), (1, 2), (1,), (0, 1, 2)],
                                   [(1,), (1, 2), (0, 1), (0, 1, 2)]],
                         ids=["first_as_chain_1", "first_alone"])
def test_a_solved_ideal_is_reused_at_any_chain_position(fld, order, monkeypatch):
    # I1's chains are solved in the first nesting and kept on the ideal: the
    # later nestings reuse them as chain 0 and as chain 1, at other parameter
    # offsets, and must solve as the same nestings of fresh ideals do
    solved = []
    process = tangent._process_chain

    def recording(src, e):
        solved.append((src.ideal, e))
        return process(src, e)

    monkeypatch.setattr(tangent, "_process_chain", recording)
    shared = _family_ideals(fld)
    for idx in order:
        rep = tnt_check(Nesting([shared[i] for i in idx]))
        fresh = _family_ideals(fld)
        assert rep.to_json() == tnt_check(Nesting([fresh[i] for i in idx])).to_json()
        degrees, certified = REUSE_PINS[idx]
        assert rep.degrees == degrees and rep.theta_rank == 4
        assert (rep.tnt == TNT_CERTIFIED) == certified
    # each chain of a shared ideal was solved once, over all the nestings
    keys = [(k, e) for i, e in solved for k, j in enumerate(shared) if i is j]
    assert len(keys) == len(set(keys)) == 9


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_sandwich_insert_reuses_the_chains_of_its_nesting(fld):
    # I1 > m^2 > I2: the enlarged nesting reuses I1 as chain 0 and I2, solved
    # as chain 1 of the pair, as chain 2
    _, i1, i2 = _family_ideals(fld)
    nest = Nesting([i1, i2])
    assert tnt_check(nest).degrees == REUSE_PINS[(1, 2)][0]
    enlarged = tnt_check(sandwich_insert(nest, 1, 2))
    _, f1, f2 = _family_ideals(fld)
    fresh = tnt_check(sandwich_insert(Nesting([f1, f2]), 1, 2))
    assert enlarged.to_json() == fresh.to_json()
    assert enlarged.hilbert_functions == ["(1,2)", "(1,4)", "(1,4,2)"]
    assert enlarged.degrees == {-2: 0, -1: 8, 0: 20} and enlarged.theta_rank == 4
    assert enlarged.tnt != TNT_CERTIFIED


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_a_deleted_ideal_is_freed_with_what_it_keeps(fld):
    # an ideal keeps its relation splits, chains, theta table and the
    # oracle's syzygies; none of them, and no module-level cache, holds the
    # ideal, so deleting a solved nesting and its ideals frees every ideal
    _, i1, i2 = _family_ideals(fld)
    nest = sandwich_insert(Nesting([i1, i2]), 1, 2)
    assert tnt_check(nest).degrees == {-2: 0, -1: 8, 0: 20}
    assert hom_dim_via_syzygies(i2, -1) == tangent_graded(i2, -1)
    refs = [weakref.ref(ideal) for ideal in nest.ideals]
    assert all(ideal._kept for ideal in nest.ideals)
    del i1, i2, nest
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_edits_to_theta_tables_never_reach_the_kept_ones(fld):
    # the tables are kept on the ideals; the caller's copies are its own to edit
    _, i1, i2 = _family_ideals(fld)
    nest = Nesting([i1, i2])
    tables = theta_tables(nest)
    for k, d, r in _changed_entries(nest):
        t = tables[k][d][2]
        tables[k][d] = _changed(tables, k, d, 0, r * t, fld)[k][d]
    assert not check_tangent_blocks(nest, tables)
    _, f1, f2 = _family_ideals(fld)
    fresh = Nesting([f1, f2])
    assert theta_rank(nest) == theta_rank(fresh) == 4
    assert tnt_check(nest).to_json() == tnt_check(fresh).to_json()
    assert check_tangent_blocks(nest, theta_tables(nest))


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


def test_a_census_row_solves_its_i2_once_per_e(monkeypatch):
    # the cells of a row nest a fresh I1 in the row's one I2: the kernel of
    # I2's constraint rows, its own solutions, is computed at the first cell
    # for each e and kept for the others, which rank their link rows alone
    solved, kernels = [], []
    chain_solutions, kernel_basis = tangent._chain_solutions, Mat.kernel_basis

    def recording(src, e):
        solved.append((src.ideal.hilbert_function(), e))
        return chain_solutions(src, e)

    monkeypatch.setattr(tangent, "_chain_solutions", recording)
    monkeypatch.setattr(Mat, "kernel_basis", lambda m: kernels.append(m) or kernel_basis(m))
    records = list(census((8, 8), FP))
    cells = [r for r in records if r.tnt is not None]
    assert len(cells) == 5 and all(r.tnt == TNT_CERTIFIED for r in cells)
    i2 = family_I2(RingCtx(8), FP).hilbert_function()
    i2_solved = [e for h, e in solved if h == i2]
    assert i2_solved and len(i2_solved) == len(set(i2_solved))
    assert len(solved) - len(i2_solved) == 5 * len(i2_solved)  # each I1 is fresh
    assert len(kernels) == len(solved)  # one kernel per chain, none per nesting


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
@pytest.mark.parametrize("n, profile, seed", [(4, (1, 4, 7, 2), 3), (4, (1, 4, 7, 2), 4),
                                              (4, (1, 4, 7, 2), 5), (2, (1, 2, 2, 1, 1), 0)])
def test_pruned_chains_match_the_syzygy_oracle(fld, n, profile, seed, monkeypatch):
    # a chain drops its parameters once the blocks so far have full column
    # rank on them.  The generic (1,4,7,2) chains at e = -3 and -2 die at
    # their first block while degree-3 generators bring fresh parameters,
    # and stop at degree 4, past the last generator; the (1,2,2,1,1) chain
    # at e = -3 drops the parameters of its degree-2 and degree-3
    # generators and keeps the two of its degree-5 one, and its other
    # chains have blocks short of full rank, whose parameters stay
    ideal = generic_ideal_with_hilbert_function(RingCtx(n), fld, profile, seed=seed)
    tested, full = [], tangent.full_column_rank
    monkeypatch.setattr(tangent, "full_column_rank", lambda m: tested.append(full(m)) or tested[-1])
    e_lo, e_hi = -ideal.max_gen_degree, max(ideal.socle_degree - ideal.order, -1)
    for e in range(e_lo, e_hi + 1):
        assert tangent_graded(ideal, e) == hom_dim_via_syzygies(ideal, e)
    assert set(tested) == ({True} if profile == (1, 4, 7, 2) else {True, False})
    if profile == (1, 4, 7, 2):
        for e in (-3, -2):
            table, cons, q = tangent._process_chain(tangent.IdealSource(ideal), e)
            assert (q, cons.nrows, max(table)) == (0, 0, 4)
    else:
        table, cons, q = tangent._process_chain(tangent.IdealSource(ideal), -3)
        assert (q, cons.nrows, cons.ncols) == (2, 11, 2)  # two blocks, of 5 and 6 rows
        assert [table[d][0].nrows for d in sorted(table)] == [0, 0, 0, 2, 2, 2]


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
def test_a_dead_module_chain_stops_past_its_last_generator(fld):
    # m/I is generated in degree 1, read off its relations (gen_top).  Its
    # e = -1 chain loses its parameters to its first block and stops at
    # degree 2, short of its top degree 5, and the dims are those of chains
    # built to their top degree
    ctx = RingCtx(2)
    ideal = generic_ideal_with_hilbert_function(ctx, fld, (1, 2, 2, 1, 1), seed=0)
    mod, tgt = subquotient_module(power_of_max_ideal(ctx, fld, 1), ideal), quotient_module(ideal)
    src = tangent.ModuleSource(mod, tgt)
    assert src.gen_top == 1
    table, cons, q = tangent._process_chain(src, -1)
    assert (q, cons.nrows, max(table), tgt.top + 1) == (0, 0, 2, 5)
    dims = graded_hom_dims(mod, tgt)
    src.gen_top = tgt.top + 2  # no chain stops before its top degree
    assert dims == {e: k for e in range(-1, 4) if (k := tangent._solve([src], e))}
    assert dims == {0: 2, 1: 3, 2: 1, 3: 2}


def test_a_dead_chain_stops_before_the_relations_it_does_not_need():
    # I2:10 is generated in degree 2 and its socle is in degree 2: the first
    # block of its e = -2 chain has full column rank on the 53 parameters,
    # which leave, and with no generator above degree 2 the chain stops
    # before its relations out of degree 3, which no other chain reads
    ctx = RingCtx(10)
    i2 = family_I2(ctx, FP)
    rep = tnt_check(Nesting([family_I1(ctx, FP, 2), i2]))
    assert rep.tnt == TNT_CERTIFIED and rep.degrees == {-2: 0, -1: 10, 0: 122}
    table, cons, q = tangent._process_chain(tangent.IdealSource(i2), -2)
    assert (q, cons.nrows) == (0, 0) and all(p.nrows == 0 for p, _, _ in table.values())
    assert ("e_struct", 2) in i2._kept and ("e_struct", 3) not in i2._kept


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
@pytest.mark.parametrize("build", [lambda c, f: family_I1(c, f, 2), lambda c, f: family_I1(c, f, 3),
                                   family_I2], ids=["I1:6,2", "I1:6,3", "I2:6"])
def test_family_tangent_dimensions_match_the_syzygy_oracle(fld, build):
    # a single chain's dimension is the number of its own solutions over
    # GF(p), and q minus the rank of its constraint rows over QQ
    ideal = build(RingCtx(6), fld)
    e_lo, e_hi = -ideal.max_gen_degree, max(ideal.socle_degree - ideal.order, -1)
    for e in range(e_lo, e_hi + 1):
        assert tangent_graded(ideal, e) == hom_dim_via_syzygies(ideal, e)
