from collections import Counter

import pytest

from nesthilb import ideals
from nesthilb.ideals import (family_8points, family_I2,
                             generic_ideal_with_hilbert_function,
                             ideal_from_generators, power_of_max_ideal, zero_ideal)
from nesthilb.linalg import FieldSpec, Mat, QQ
from nesthilb.parsing import parse_ideal_spec, parse_polynomial
from nesthilb.resolutions import (NotTwoStep, _ideal_gens_as_free, _syzygy_step,
                                  betti_table, has_linear_syzygies, minimal_generators,
                                  two_step_order)
from nesthilb.ring import RingCtx, scatter_rows

FP = FieldSpec.prime(32003)
F2, F3 = FieldSpec.prime(2), FieldSpec.prime(3)


def test_koszul_resolution_of_linear_ideal():
    ctx = RingCtx(2)
    bt = betti_table(power_of_max_ideal(ctx, QQ, 1))
    assert {k: v for k, v in bt.betti.items() if v} == {(0, 1): 2, (1, 2): 1}
    assert bt.euler_identity_holds()


def test_square_of_max_ideal_two_vars():
    # classical: 0 <- m^2 <- R(-2)^3 <- R(-3)^2 <- 0, cross-checked by Euler
    ctx = RingCtx(2)
    bt = betti_table(power_of_max_ideal(ctx, QQ, 2))
    assert {k: v for k, v in bt.betti.items() if v} == {(0, 2): 3, (1, 3): 2}
    assert bt.euler_identity_holds()


def test_minimal_generator_counts():
    ctx = RingCtx(3)
    gens = minimal_generators(power_of_max_ideal(ctx, QQ, 2))
    assert len(gens) == 6 and all(d == 2 for d, _ in gens)
    i2 = family_I2(RingCtx(4), QQ)
    gens2 = minimal_generators(i2)
    assert len(gens2) == 8 and all(d == 2 for d, _ in gens2)


@pytest.mark.parametrize("build, degrees", [
    (lambda: family_8points(RingCtx(4), QQ), {2: 7}),
    (lambda: family_I2(RingCtx(5), FP), {2: 13}),
    (lambda: generic_ideal_with_hilbert_function(RingCtx(3), QQ, (1, 3, 6, 8, 4), seed=7),
     {3: 2, 4: 5}),
    (lambda: generic_ideal_with_hilbert_function(RingCtx(3), FP, (1, 3, 6, 8, 4), seed=7),
     {3: 2, 4: 5}),
    (lambda: power_of_max_ideal(RingCtx(3), FP, 2), {2: 6}),
    (lambda: zero_ideal(RingCtx(3), QQ, 3), {}),
    # the unit ideal R, stored to degree 2
    (lambda: ideals._max_ideal_power(RingCtx(4), FP, 0, 2), {0: 1}),
], ids=["from_generators-8points-QQ", "from_generators-I2-Fp", "generic-QQ", "generic-Fp",
        "power_of_max_ideal-Fp", "zero_ideal-QQ", "R-via-quotient_module-Fp"])
def test_generators_against_span_arithmetic(build, degrees):
    ideal = build()
    ctx, fld = ideal.ctx, ideal.fld
    # independent recomputation from raw spans: the rows of I_d at pivots that
    # R_1 * I_{d-1} does not have, as many as dim I_d - rank(R_1 * I_{d-1})
    expected = []
    for d in range(ideal.cutoff + 1):
        basis, piv = ideal.basis_at(d)
        if d == 0:
            span = Mat.zeros(fld, 0, 1)
        else:
            prev, _ = ideal.basis_at(d - 1)
            span = Mat.vstack(fld, [scatter_rows(ctx, prev, j, d - 1) for j in range(ctx.n)],
                              ctx.dim(d))
        _, span_piv = span.rref()
        fresh = [(d, basis.row_items(i)) for i, p in enumerate(piv) if p not in span_piv]
        assert len(fresh) == ideal.dim_at(d) - span.rank()
        expected += fresh
    assert ideal.generator_degrees() == degrees
    assert [d for d, _ in expected] == [d for d, k in sorted(degrees.items()) for _ in range(k)]
    if ideal.is_m_primary:
        assert ideal.max_gen_degree == max(degrees)
        assert [(d, g.coeffs) for d, g in minimal_generators(ideal)] == expected


def test_minimal_generators_do_no_elimination(monkeypatch):
    built = [family_I2(RingCtx(5), FP), family_8points(RingCtx(4), QQ),
             generic_ideal_with_hilbert_function(RingCtx(3), FP, (1, 3, 6, 8, 4), seed=7)]
    before = [[(d, g.coeffs) for d, g in minimal_generators(i)] for i in built]

    def refuse(*args, **kwargs):
        raise AssertionError("elimination in minimal_generators")

    monkeypatch.setattr(Mat, "rref", refuse)
    monkeypatch.setattr(Mat, "rank", refuse)
    assert [[(d, g.coeffs) for d, g in minimal_generators(i)] for i in built] == before


def test_generators_actually_generate():
    ctx = RingCtx(4)
    z = family_8points(ctx, QQ)
    gens = [g for _, g in minimal_generators(z)]
    regen = ideal_from_generators(ctx, QQ, gens)
    assert regen.equals(z)


@pytest.mark.parametrize("build", [
    lambda: power_of_max_ideal(RingCtx(3), QQ, 3),
    lambda: family_8points(RingCtx(4), QQ),
    lambda: generic_ideal_with_hilbert_function(RingCtx(3), FP, (1, 3, 6, 8, 4), seed=3),
    lambda: generic_ideal_with_hilbert_function(RingCtx(2), QQ, (1, 2, 3, 2), seed=4),
])
def test_betti_invariants(build):
    ideal = build()
    bt = betti_table(ideal)
    assert bt.euler_identity_holds()
    # resolution of R/I has length exactly n for a finite colength ideal
    assert bt.projective_dimension() == ideal.ctx.n - 1
    s = ideal.socle_degree
    assert all(j <= s + i + 1 for (i, j), b in bt.betti.items() if b)


def _iterated_betti(ideal) -> dict[tuple[int, int], int]:
    """Independent oracle: the ideal's minimal generators, then minimal
    generators of each syzygy module in turn, counted by degree."""
    ctx, fld, s = ideal.ctx, ideal.fld, ideal.socle_degree
    gens = _ideal_gens_as_free(ideal)
    betti = Counter((0, d) for d in gens.degrees)
    step = 0
    while gens.degrees:
        step += 1
        assert step <= ctx.n, "resolution did not stop at the depth bound"
        gens = _syzygy_step(ctx, fld, gens, s + step + 1)
        betti.update((step, c) for c in gens.degrees)
    return dict(betti)


_ORACLE_SPECS = ["I2:4", "I1:6,3", "m^1:2", "m^3:4", "m^2:5", "8points",
                 "generic:q=(1,3,6,8,4),seed=5"]


@pytest.mark.parametrize("spec, fld", [
    *[(spec, fld) for fld in (QQ, FP, F2, F3) for spec in _ORACLE_SPECS
      if not (spec.startswith("I2") and fld.p in (2, 3))],  # I2 is not m-primary there
    ("generic:q=(1,4,10,12),seed=12", FP),
    ("generic:q=(1,5,12,10),seed=5", FP),
], ids=lambda v: v.label if isinstance(v, FieldSpec) else v)
def test_koszul_betti_equals_iterated_syzygies(spec, fld):
    ideal = parse_ideal_spec(spec, fld)
    bt = betti_table(ideal)
    assert bt.betti == _iterated_betti(ideal)
    assert bt.euler_identity_holds()


@pytest.mark.parametrize("fld", [QQ, FP], ids=["QQ", "F32003"])
@pytest.mark.parametrize("spec", ["m^0:3", "gens(2): 1"])
def test_unit_ideal_betti_table(spec, fld):
    # R is generated by 1 in degree 0; the Koszul formula alone needs I inside m
    ideal = parse_ideal_spec(spec, fld)
    assert ideal.socle_degree == -1
    bt = betti_table(ideal)
    assert bt.betti == {(0, 0): 1} == _iterated_betti(ideal)
    assert bt.projective_dimension() == 0


def test_rational_betti_table_of_a_deep_generic_ideal():
    # pinned, not compared: the iterated-syzygy oracle takes about 100 s on it over QQ
    ideal = parse_ideal_spec("generic:q=(1,4,10,18,10),seed=12", QQ)
    assert betti_table(ideal).betti == {(0, 3): 2, (0, 4): 17, (1, 5): 32, (2, 6): 2,
                                        (2, 7): 22, (3, 8): 10}


def test_betti_staircase_format():
    txt = betti_table(family_I2(RingCtx(4), QQ)).staircase()
    assert "total:" in txt and txt.splitlines()[2].startswith("2:")


def test_two_step_predicate_fixtures():
    ctx = RingCtx(3)
    ideal = generic_ideal_with_hilbert_function(ctx, FP, (1, 3, 6, 8, 4), seed=7)
    assert two_step_order(ideal) == 3
    # rank(R_1 * I_k) against n * dim I_k, with the rank cross-checked on the
    # stacked variable actions I_k -> I_{k+1}
    def step_rank(i, k):
        return Mat.vstack(i.fld, [i.action(j, k) for j in range(i.ctx.n)],
                          i.dim_at(k + 1)).rank()

    assert has_linear_syzygies(ideal) is False
    assert step_rank(ideal, 3) == 3 * 2  # I_3 has dim 2 and R_1 * I_3 rank 6
    i2 = family_I2(RingCtx(4), FP)
    assert has_linear_syzygies(i2) is True
    assert step_rank(i2, 2) == 20 < 4 * 8
    mk = power_of_max_ideal(ctx, FP, 2)
    assert has_linear_syzygies(mk) is True  # Koszul relations
    assert step_rank(mk, 2) == 10 < 3 * 6
    # x2 * x1^2 = x1 * x1x2: a linear syzygy that h(k+1) = 4 = n * h(k) misses
    tight = parse_ideal_spec("gens(2): x1^2; x1*x2; x2^3", QQ)
    assert two_step_order(tight) == 2
    assert has_linear_syzygies(tight) is True
    assert step_rank(tight, 2) == 3 < 2 * 2 == tight.dim_at(3)
    # socle too deep for a 2-step ideal: (x1^3) + m^6 in two variables
    ctx2 = RingCtx(2)
    gens = [parse_polynomial("x1^3", ctx2, QQ)] + \
        [parse_polynomial(f"x1^{6 - i}*x2^{i}", ctx2, QQ) for i in range(7)]
    deep = ideal_from_generators(ctx2, QQ, gens)
    with pytest.raises(NotTwoStep):
        has_linear_syzygies(deep)
