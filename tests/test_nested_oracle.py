"""Cross-validation of the incremental nested solver against a naive flat
assembly of the same degreewise constraints (built independently, one giant
kernel, no per-degree elimination)."""

import pytest

from nesthilb.ideals import (Nesting, family_8points, family_I1, family_I2,
                             generic_ideal_with_hilbert_function,
                             power_of_max_ideal, quotient_module)
from nesthilb.linalg import FieldSpec, Mat, QQ
from nesthilb.ring import RingCtx
from nesthilb.tangent import (_inclusion_coords, _lift_project,
                              nested_tangent_graded, tangent_window)

FP = FieldSpec.prime(32003)


def brute_nested_dim(nest: Nesting, e: int) -> int:
    fld = nest.fld
    n = nest.ctx.n
    offsets = {}
    total = 0
    shapes = {}
    for i, ideal in enumerate(nest.ideals):
        qt = quotient_module(ideal)
        o = ideal.order or 0
        for d in range(o, qt.top - e + 1):
            s, t = ideal.dim_at(d), qt.dim(d + e)
            shapes[(i, d)] = (s, t)
            if s and t:
                offsets[(i, d)] = total
                total += s * t

    def unknown(i, d, row, col):
        return offsets[(i, d)] + row * shapes[(i, d)][1] + col

    entries = []
    nrows = 0
    for i, ideal in enumerate(nest.ideals):
        qt = quotient_module(ideal)
        o = ideal.order or 0
        for d in range(o, qt.top - e):
            s, t = shapes[(i, d)]
            s1, t1 = shapes[(i, d + 1)]
            if s1 == 0 or t1 == 0:
                continue
            for j in range(n):
                act = ideal.action(j, d)
                # column c of the target action, as {row: value}
                bq_cols = qt.action(j, d + e).transpose()
                for b in range(s):
                    for c in range(t1):
                        row = nrows + (j * s + b) * t1 + c
                        for u, v in act.row_items(b).items():
                            entries.append((row, unknown(i, d + 1, u, c), v))
                        if t:
                            for tt, val in bq_cols.row_items(c).items():
                                entries.append((row, unknown(i, d, b, tt), -val))
            nrows += n * s * t1
    for i in range(nest.r - 1):
        upper, lower = nest.ideals[i], nest.ideals[i + 1]
        qtu = quotient_module(upper)
        top_u = qtu.top - e
        for d in range((lower.order or 0), top_u + 1):
            s_low = lower.dim_at(d)
            t_up = qtu.dim(d + e)
            if s_low == 0 or t_up == 0:
                continue
            incl = _inclusion_coords(lower, upper, d)
            s_up, t_low = shapes[(i, d)][0], shapes[(i + 1, d)][1]
            # column c of the lift-project map, as {row: value}
            lp_cols = _lift_project(lower, upper, d + e).transpose() if t_low else None
            for w in range(s_low):
                for c in range(t_up):
                    row = nrows + w * t_up + c
                    for u, v in incl.row_items(w).items():
                        entries.append((row, unknown(i, d, u, c), v))
                    if t_low:
                        for tt, val in lp_cols.row_items(c).items():
                            entries.append((row, unknown(i + 1, d, w, tt), -val))
            nrows += s_low * t_up
    if total == 0:
        return 0
    mat = Mat.from_entries(fld, nrows, total, entries)
    return mat.kernel_basis().nrows


NESTS = [
    lambda: Nesting([power_of_max_ideal(RingCtx(2), QQ, 1),
                     power_of_max_ideal(RingCtx(2), QQ, 2)]),
    lambda: Nesting([power_of_max_ideal(RingCtx(2), QQ, 2),
                     power_of_max_ideal(RingCtx(2), QQ, 3)]),
    lambda: Nesting([family_I1(RingCtx(4), QQ, 2), family_I2(RingCtx(4), QQ)]),
    lambda: Nesting([family_8points(RingCtx(4), QQ)]),
    lambda: Nesting([power_of_max_ideal(RingCtx(3), FP, 1),
                     generic_ideal_with_hilbert_function(RingCtx(3), FP, (1, 3, 4),
                                                         seed=2)]),
    lambda: Nesting([power_of_max_ideal(RingCtx(3), FP, 2),
                     generic_ideal_with_hilbert_function(RingCtx(3), FP,
                                                         (1, 3, 6, 5), seed=9)]),
    lambda: Nesting([power_of_max_ideal(RingCtx(2), FP, 1),
                     power_of_max_ideal(RingCtx(2), FP, 2),
                     power_of_max_ideal(RingCtx(2), FP, 4)]),
]


@pytest.mark.parametrize("build", NESTS)
def test_incremental_matches_flat_assembly(build):
    nest = build()
    e_min, e_max = tangent_window(nest)
    for e in range(e_min, e_max + 1):
        fast = nested_tangent_graded(nest, e)
        slow = brute_nested_dim(nest, e)
        assert fast == slow, (nest, e, fast, slow)


def test_brute_oracle_agrees_on_known_values():
    ctx = RingCtx(3)
    nest = Nesting([power_of_max_ideal(ctx, QQ, 1), power_of_max_ideal(ctx, QQ, 2)])
    assert brute_nested_dim(nest, -1) == 21
    single = Nesting([power_of_max_ideal(RingCtx(2), QQ, 2)])
    assert brute_nested_dim(single, -1) == 6
