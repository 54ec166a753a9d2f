"""End-to-end fixture suite: every headline number the engine must reproduce.

Each fixture asserts exact values and carries a wall-clock budget; `run_verify`
returns structured results for the CLI table and the test suite alike.
Only hilbert_families, sharpness_degrees, prepend_max_formula and
eight_points read the field given; the others fix their own.  Over a prime
below ``SMALL_PRIME_LIMIT``, prepend_max_formula (genericity of random
choices) and hilbert_families (I2:n is not m-primary over F_2) are skipped.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .ideals import (Nesting, _form, family_8points, family_delta, family_I1, family_I2,
                     family_twisted_cubic_cone, generic_ideal_with_hilbert_function,
                     ideal_from_generators, power_of_max_ideal, quotient_module,
                     subquotient_module)
from .linalg import DEFAULT_PRIME, FieldSpec, QQ
from .resolutions import betti_table, minimal_generators
from .ring import RingCtx
from .strata import (compressed_1n2_dim, gap, gap_formula, smoothable_dim,
                     thmC_report, two_step_stratum_dim)
from .tangent import (TNT_CERTIFIED, hom_dim_via_syzygies, nested_tangent_graded,
                      sandwich_identity_check, tangent_graded, tangent_window,
                      tnt_check)

SMALL_PRIME_LIMIT = 1000


@dataclass
class FixtureResult:
    name: str
    passed: bool
    skipped: bool
    detail: str
    elapsed: float
    budget: float


def sharpness_ideal(fld: FieldSpec) -> "tuple":
    """The explicit monomial pair in four variables whose negative tangents
    are spread over several degrees: m^2 over the ideal generated by
    x4*m^2, (x1 x3, x2 x3, x2^2)*m, x1^4 and x3^5."""
    ctx = RingCtx(4)
    gens = [_form(ctx, fld, (1, a, b, 4))
            for a, b in itertools.combinations_with_replacement(range(1, 5), 2)]
    gens += [_form(ctx, fld, (1, a, b, v)) for a, b in ((1, 3), (2, 3), (2, 2))
             for v in range(1, 5)]
    gens += [_form(ctx, fld, (1, 1, 1, 1, 1)), _form(ctx, fld, (1, 3, 3, 3, 3, 3))]
    inner = ideal_from_generators(ctx, fld, gens, require_m_primary=True)
    outer = power_of_max_ideal(ctx, fld, 2)
    return ctx, outer, inner


# ---------------------------------------------------------------- fixtures


def fx_betti_determinantal(fld: FieldSpec) -> str:
    ctx = RingCtx(4)
    bt = betti_table(family_I2(ctx, QQ))
    expected = {(0, 2): 8, (1, 3): 12, (1, 4): 1, (2, 4): 4, (2, 5): 4, (3, 6): 2}
    got = {k: v for k, v in bt.betti.items() if v}
    assert got == expected, f"betti {got} != {expected}"
    assert bt.euler_identity_holds()
    assert bt.projective_dimension() == 3
    return "resolution 8 / 12+1 / 4+4 / 2 over the rationals"


def fx_nested_tangent_pair(fld: FieldSpec) -> str:
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, QQ, 2), family_I2(ctx, QQ)])
    rep = tnt_check(nest)
    assert rep.t_at(-1) == 4, rep.degrees
    assert all(rep.t_at(e) == 0 for e in range(rep.e_min, -1)), rep.degrees
    assert rep.theta_rank == 4
    assert rep.tnt == TNT_CERTIFIED
    return f"t(-1)=4, zero below, theta rank 4, degrees {rep.degrees}"


def fx_family_slice_tnt(fld: FieldSpec) -> str:
    fld = FieldSpec.prime(DEFAULT_PRIME)
    checked = 0
    for n in range(4, 9):
        ctx = RingCtx(n)
        i2 = family_I2(ctx, fld)
        for s in range(2, n - 1):
            rep = tnt_check(Nesting([family_I1(ctx, fld, s), i2]))
            assert rep.tnt == TNT_CERTIFIED, (n, s, rep.degrees, rep.theta_rank)
            assert rep.t_at(-1) == n, (n, s, rep.degrees)
            checked += 1
    return f"{checked} family nestings certified, 4<=n<=8"


def fx_hilbert_families(fld: FieldSpec) -> str:
    for n in range(4, 16):
        ctx = RingCtx(n)
        cutoff = 6 if n <= 8 else 3
        h = family_delta(ctx, fld, cutoff=cutoff).hilbert_function()
        assert h.truncated and all(h(i) == n for i in range(1, cutoff + 1)), (n, h)
        h2 = family_I2(ctx, fld).hilbert_function()
        assert tuple(h2.entries) == (1, n, 2), (n, h2)
    return "profiles (n,n,...) and (1,n,2) for 4<=n<=15"


def fx_dimension_formulas(fld: FieldSpec) -> str:
    r = two_step_stratum_dim((1, 3, 6, 8, 4), 3)
    assert r.value == 44 and r.warning is None, r
    assert smoothable_dim((22,), 2) == 44
    for n in range(4, 31):
        for s in range(2, n - 1):
            g = gap(n, s)
            assert g.gap == gap_formula(n, s) == n * (1 - s) + 4 + s * s, (n, s)
    for n in range(4, 16):
        d = two_step_stratum_dim((1, n, 2), n)
        assert d.value == compressed_1n2_dim(n) and d.warning is not None, n
    for n in range(8, 31):
        for s in range(1, n):
            assert (gap_formula(n, s) <= 0) == (2 <= s <= n - 2), (n, s)
    assert thmC_report(5).stratum_dim == thmC_report(5).smoothable_dim == 44
    return "two-step 44, smoothable 44, gap identity 4<=n<=30"


def fx_sharpness_degrees(fld: FieldSpec) -> str:
    ctx, outer, inner = sharpness_ideal(fld)
    assert tuple(inner.hilbert_function().entries) == (1, 4, 10, 3, 2)
    rep = tnt_check(Nesting([outer, inner]))
    got = (rep.t_at(-2), rep.t_at(-3), rep.t_at(-4))
    assert got == (10, 8, 0), rep.degrees
    return f"(t(-2), t(-3), t(-4)) = {got}"


def fx_sandwich_jump(fld: FieldSpec) -> str:
    fld = FieldSpec.prime(DEFAULT_PRIME)
    ctx = RingCtx(4)
    a = generic_ideal_with_hilbert_function(ctx, fld, (1, 4, 3), seed=11)
    b = generic_ideal_with_hilbert_function(ctx, fld, (1, 4, 10, 18, 10), seed=12)
    rep = sandwich_identity_check(Nesting([a, b]), 1, 3)
    assert rep.hypotheses_met, rep.base.degrees
    assert rep.jump_minus1 == 126, rep.jump_minus1
    assert rep.jump_formula_k_km1 == 126
    assert rep.t_nonneg_unchanged
    assert rep.identity_discrepancy == 0
    return "degree -1 jump 7*18=126, nonnegative part unchanged"


PREPEND_FIXTURES = ([(4, (1, 4, 3), s) for s in (11, 12, 13, 14, 15, 16, 17)] +
                   [(3, (1,), s) for s in (31, 32, 33)])


def fx_prepend_max_formula(fld: FieldSpec) -> str:
    checked = 0
    for n, q, seed in PREPEND_FIXTURES:
        ctx = RingCtx(n)
        ideal = generic_ideal_with_hilbert_function(ctx, fld, q, seed=seed)
        rep = tnt_check(Nesting([ideal]))
        assert rep.tnt == TNT_CERTIFIED, (n, q, seed, rep.degrees, rep.theta_rank)
        m = power_of_max_ideal(ctx, fld, 1)
        t1 = nested_tangent_graded(Nesting([m, ideal]), -1)
        h1 = ideal.hilbert_function()(1)
        assert t1 == n + h1, (n, q, seed, t1, n + h1)
        checked += 1
    return f"t(-1)[m > I] = n + h(1) on {checked} TNT fixtures"


def fx_eight_points(fld: FieldSpec) -> str:
    ctx = RingCtx(4)
    z = family_8points(ctx, fld)
    h = z.hilbert_function()
    assert tuple(h.entries) == (1, 4, 3) and h.size == 8, h
    rep = tnt_check(Nesting([z]))
    assert rep.tnt == TNT_CERTIFIED, rep.degrees
    cone = family_twisted_cubic_cone(ctx, fld, cutoff=3)
    assert z.contains(cone), "surface ideal not inside the point ideal"
    m5 = power_of_max_ideal(ctx, fld, 5)
    assert z.contains(m5)
    return "length 8, profile (1,4,3), TNT certified, cone ideal contained"


ORACLE_FIXTURES = [
    (2, (1, 2, 2)), (2, (1, 2, 3, 2)), (2, (1, 2, 1)), (2, (1, 2, 3, 4, 2)),
    (2, (1, 2, 2, 2)), (2, (1, 2, 3, 3)), (2, (1, 2, 3, 4, 5, 2)), (2, (1, 1)),
    (2, (1, 2, 3, 2, 1)),
    (3, (1, 3, 4)), (3, (1, 3, 5, 2)), (3, (1, 3, 3)), (3, (1, 3, 6, 5)),
    (3, (1, 3, 4, 2)), (3, (1, 3, 2)), (3, (1, 3, 6, 8)), (3, (1, 3, 5)),
    (3, (1, 3, 6, 3)), (3, (1, 3, 6, 9)), (3, (1, 3, 1)),
    (4, (1, 4, 3)), (4, (1, 4, 6)), (4, (1, 4, 2)), (4, (1, 4, 8)),
    (4, (1, 4, 10, 4)),
]


def fx_property_suites(fld: FieldSpec) -> str:
    fld = FieldSpec.prime(DEFAULT_PRIME)
    # degreewise solver vs generator/syzygy oracle on 25 seeded ideals
    for idx, (n, q) in enumerate(ORACLE_FIXTURES):
        ctx = RingCtx(n)
        ideal = generic_ideal_with_hilbert_function(ctx, fld, q, seed=1000 + idx)
        assert ideal.colength() <= 20
        e_lo = -ideal.max_gen_degree
        e_hi = max(ideal.socle_degree - ideal.order, -1)
        for e in range(e_lo - 1, e_hi + 2):
            a = tangent_graded(ideal, e)
            b = hom_dim_via_syzygies(ideal, e)
            assert a == b, (n, q, e, a, b)
            if e in (e_lo - 1, e_hi + 1):
                assert a == 0, (n, q, e, a)
    # Euler identity plus resolution length on a spread of tables
    tables = []
    ctx2, ctx3 = RingCtx(2), RingCtx(3)
    for exemplar in (power_of_max_ideal(ctx2, QQ, 1), power_of_max_ideal(ctx2, QQ, 2),
                     power_of_max_ideal(ctx3, QQ, 3), family_8points(RingCtx(4), QQ)):
        tables.append((exemplar, betti_table(exemplar)))
    g3 = generic_ideal_with_hilbert_function(ctx3, fld, (1, 3, 6, 8, 4), seed=5)
    tables.append((g3, betti_table(g3)))
    for ideal, bt in tables:
        assert bt.euler_identity_holds(), bt.betti
        assert bt.projective_dimension() + 1 == ideal.ctx.n, bt.betti
        gens = minimal_generators(ideal)
        assert {d: sum(1 for dd, _ in gens if dd == d) for d, _ in gens} == \
            {j: b for (i, j), b in bt.betti.items() if i == 0 and b}
    # commuting variable actions on graded modules
    ctxs, outer, inner = sharpness_ideal(QQ)
    for mod in (quotient_module(inner), subquotient_module(outer, inner),
                subquotient_module(power_of_max_ideal(ctxs, QQ, 3), inner)):
        assert mod.check_commuting()
    # prime-vs-rational dimension consistency on the shipped fixtures
    for build in (_pair_ex32, _single_8points, _pair_sharp):
        nq = build(QQ)
        np_ = build(FieldSpec.prime(DEFAULT_PRIME))
        wq = tangent_window(nq)
        for e in range(wq[0], wq[1] + 1):
            dq = nested_tangent_graded(nq, e)
            dp = nested_tangent_graded(np_, e)
            assert dq == dp, (build.__name__, e, dq, dp)
    return "oracle x25, euler x5, commutation x3, field consistency x3"


def _pair_ex32(fld: FieldSpec) -> Nesting:
    ctx = RingCtx(4)
    return Nesting([family_I1(ctx, fld, 2), family_I2(ctx, fld)])


def _single_8points(fld: FieldSpec) -> Nesting:
    return Nesting([family_8points(RingCtx(4), fld)])


def _pair_sharp(fld: FieldSpec) -> Nesting:
    _, outer, inner = sharpness_ideal(fld)
    return Nesting([outer, inner])


FIXTURES = [
    ("betti_determinantal", 10.0, False, fx_betti_determinantal),
    ("nested_tangent_pair", 30.0, False, fx_nested_tangent_pair),
    ("family_slice_tnt", 600.0, False, fx_family_slice_tnt),
    ("hilbert_families", 60.0, True, fx_hilbert_families),
    ("dimension_formulas", 5.0, False, fx_dimension_formulas),
    ("sharpness_degrees", 60.0, False, fx_sharpness_degrees),
    ("sandwich_jump", 300.0, False, fx_sandwich_jump),
    ("prepend_max_formula", 120.0, True, fx_prepend_max_formula),
    ("eight_points", 30.0, False, fx_eight_points),
    ("property_suites", 300.0, False, fx_property_suites),
]


def run_verify(names: list[str] | None = None,
               fld: FieldSpec = QQ) -> list[FixtureResult]:
    tiny_prime = fld.p is not None and fld.p < SMALL_PRIME_LIMIT
    results = []
    for name, budget, large_prime, fn in FIXTURES:
        if names is not None and name not in names:
            continue
        if tiny_prime and large_prime:
            results.append(FixtureResult(
                name, passed=True, skipped=True,
                detail=f"skipped over {fld.label}: its numbers need QQ or a prime "
                       f"of at least {SMALL_PRIME_LIMIT}",
                elapsed=0.0, budget=budget))
            continue
        t0 = time.monotonic()
        try:
            detail = fn(fld)
            elapsed = time.monotonic() - t0
            ok = elapsed <= budget
            if not ok:
                detail = f"budget {budget}s exceeded; {detail}"
            results.append(FixtureResult(name, ok, False, detail, elapsed, budget))
        except Exception as ex:
            elapsed = time.monotonic() - t0
            results.append(FixtureResult(name, False, False,
                                         f"{type(ex).__name__}: {ex}", elapsed, budget))
    return results
