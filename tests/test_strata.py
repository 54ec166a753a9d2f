import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.ideals import (Nesting, family_I1, family_I2,
                             generic_ideal_with_hilbert_function)
from nesthilb import strata
from nesthilb.linalg import FieldSpec, Mat, QQ
from nesthilb.resolutions import has_linear_syzygies
from nesthilb.ring import RingCtx
from nesthilb.strata import (GAP_BOUNDARY, GAP_INCONCLUSIVE, GAP_STRICT,
                             HasLinearSyzygies, StrataError, census, census_csv,
                             compressed_1n2_dim, gap, gap_formula, reduce_to_embedding_dim,
                             nested_stratum_dim_1s_1n2, nonreducedness_certificate,
                             smoothable_dim, thmC_report, two_step_stratum_dim)
from nesthilb.tangent import tnt_check

FP = FieldSpec.prime(32003)


def test_smoothable_dim():
    assert smoothable_dim((3, 7), 4) == 4 * 7
    assert smoothable_dim((22,), 2) == 44
    assert smoothable_dim((1,), 5) == 5
    with pytest.raises(StrataError):
        smoothable_dim((5, 3), 4)


def test_two_step_dimension_formula():
    r = two_step_stratum_dim((1, 3, 6, 8, 4), 3)
    assert r.value == 2 * 8 + (11 - 2 * 2) * 4 == 44 and r.order == 3
    for n in range(4, 16):
        d = two_step_stratum_dim((1, n, 2), n)
        assert d.value == compressed_1n2_dim(n)
        assert d.warning is not None  # predicate fails, q(k+1)=0 saves the value
    degenerate = two_step_stratum_dim((1, 3), 3)  # profile of R/m^2
    assert degenerate.value == 0
    with pytest.raises(HasLinearSyzygies):
        two_step_stratum_dim((1, 4, 2, 1), 4)


def test_two_step_predicate_matches_resolutions_module():
    ctx = RingCtx(3)
    ideal = generic_ideal_with_hilbert_function(ctx, FP, (1, 3, 6, 8, 4), seed=7)
    assert has_linear_syzygies(ideal) is False
    assert two_step_stratum_dim((1, 3, 6, 8, 4), 3).warning is None
    i2 = family_I2(RingCtx(4), FP)
    assert has_linear_syzygies(i2) is True
    assert two_step_stratum_dim((1, 4, 2), 4).warning is not None


def test_compressed_and_nested_stratum_dims():
    assert compressed_1n2_dim(4) == 16
    assert compressed_1n2_dim(15) == 236
    assert compressed_1n2_dim(2) == 2
    assert nested_stratum_dim_1s_1n2(4, 2) == 20
    assert nested_stratum_dim_1s_1n2(8, 2) == 80
    for n in range(4, 10):
        assert nested_stratum_dim_1s_1n2(n, n) == compressed_1n2_dim(n)


def test_gap_fixtures():
    assert gap(8, 2).gap == 0 and gap(8, 2).verdict == GAP_BOUNDARY
    g = gap(10, 3)
    assert g.gap == -7 and g.verdict == GAP_STRICT
    g2 = gap(4, 2)
    assert g2.gap == 4 and g2.verdict == GAP_INCONCLUSIVE
    with pytest.raises(StrataError):
        gap(4, 1)


def test_gap_sign_characterisation():
    for n in range(8, 31):
        for s in range(1, n):
            assert (gap_formula(n, s) <= 0) == (2 <= s <= n - 2)


def test_gap_matches_subtraction_everywhere():
    for n in range(4, 31):
        for s in range(2, n - 1):
            g = gap(n, s)
            assert g.gap == g.dim_smoothable - g.dim_stratum_total
            assert g.gap == n * (1 - s) + 4 + s * s


def test_reduce_to_embedding_dim():
    h1, offset = reduce_to_embedding_dim((1, 2), 4)
    assert (h1, offset) == (2, 4)
    h1, offset = reduce_to_embedding_dim((1, 4, 2), 4)
    assert offset == 0
    h1, offset = reduce_to_embedding_dim((1, 3, 2), 3)
    assert offset == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=4),
       st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_lemma27_offsets_compose(h1, tail, up1, up2):
    h = (1, h1) + tuple(tail)
    d = sum(h)
    n_mid = h1 + up1
    n_top = n_mid + up2
    _, off_top = reduce_to_embedding_dim(h, n_top)
    _, off_mid = reduce_to_embedding_dim(h, n_mid)
    # composing reductions is additive: the difference is linear in n
    assert off_top - off_mid == (n_top - n_mid) * (d - 1)


def test_thmC_reports():
    r5 = thmC_report(5)
    assert r5.covered and r5.colength == 22 and r5.profile_length == 5
    assert r5.stratum_dim == r5.smoothable_dim == 44
    r8 = thmC_report(8)
    assert r8.iarrobino["colength"] == 78
    assert r8.iarrobino["profile_length"] == 8
    assert sum(r8.iarrobino["profile"]) == 78
    r2 = thmC_report(2)
    assert not r2.covered


def test_nonreducedness_certificate_family_pair():
    ctx = RingCtx(4)
    nest = Nesting([family_I1(ctx, QQ, 2), family_I2(ctx, QQ)])
    rep = nonreducedness_certificate(nest, 1, 2)
    assert rep.hypotheses_met and rep.certified
    assert rep.base_defect == 0
    assert rep.sandwiched_defect == 2 * (4 - 2)
    assert rep.dim_v == 20 + 4  # stratum dimension plus support translations


@pytest.mark.parametrize("n,s", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_component_dimension_matches_stratum_formula(n, s):
    # the nonnegative tangent total at the family nesting equals the stratum
    # dimension, so the reduced component has dimension stratum + n
    ctx = RingCtx(n)
    nest = Nesting([family_I1(ctx, FP, s), family_I2(ctx, FP)])
    rep = nonreducedness_certificate(nest, 1, 2)
    assert rep.base.t_nonneg == nested_stratum_dim_1s_1n2(n, s)
    assert rep.dim_v == nested_stratum_dim_1s_1n2(n, s) + n
    assert rep.sandwiched.t_nonneg == rep.base.t_nonneg


def test_nonreducedness_certificate_maximal_over_tnt_point():
    ctx = RingCtx(4)
    ideal = generic_ideal_with_hilbert_function(ctx, FP, (1, 4, 3), seed=11)
    rep = nonreducedness_certificate(Nesting([ideal]), 0, 1)
    assert rep.certified
    assert rep.sandwiched_defect == ideal.hilbert_function()(1)


def test_census_store_roundtrip(tmp_path):
    store = tmp_path / "census.jsonl"
    recs = list(census((4, 5), fld=FP, seed=0, store_path=str(store)))
    assert len(recs) == 11  # s = 0..n for n = 4, 5
    again = list(census((4, 5), fld=FP, seed=0, store_path=str(store)))
    assert again == []  # fully resumable
    lines = [json.loads(line) for line in store.read_text().splitlines()]
    assert len(lines) == 11
    for rec in recs:
        if rec.tnt is not None:
            assert rec.tnt == "certified" and rec.t_minus_one == rec.n
            assert rec.stratum_warning is None
            assert rec.t_nonneg == nested_stratum_dim_1s_1n2(rec.n, rec.s)
        if not (2 <= rec.s <= rec.n - 2):
            assert rec.tnt is None  # out-of-family grid cell is gap-only
    csv = census_csv(str(store), "F32003", 0)
    assert csv.splitlines()[0] == "n\\s,0,1,2,3,4,5"
    assert "4^4" in csv


def test_census_threaded_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(strata, "_usable_cores", lambda: 2)  # a pool even on one core
    strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows]
    runs = {}
    for workers in (1, 2):
        store = tmp_path / f"census{workers}.jsonl"
        yielded = [r.to_json() for r in census((6, 7), fld=FP, seed=0,
                                               store_path=str(store), threads=workers)]
        stored = [json.loads(line) for line in store.read_text().splitlines()]
        assert stored == yielded
        runs[workers] = strip(yielded)
    assert [(r["n"], r["s"]) for r in runs[1]] == \
        [(n, s) for n in (6, 7) for s in range(n + 1)]
    assert runs[2] == runs[1]


def test_census_builds_one_i2_per_n_and_shares_its_relations(monkeypatch):
    counts = Counter()
    build_i2, transform = strata.family_I2, Mat.rref_with_transform

    def counted_family_i2(ctx, fld):
        counts[f"I2:{ctx.n}"] += 1
        return build_i2(ctx, fld)

    def counted_transform(m):
        counts["transform"] += 1
        return transform(m)

    monkeypatch.setattr(strata, "family_I2", counted_family_i2)
    monkeypatch.setattr(Mat, "rref_with_transform", counted_transform)
    recs = list(census((6, 7), fld=FP, seed=0))
    census_counts = dict(counts)
    counts.clear()
    for n in (6, 7):  # the same cells, each n on one I2 built by hand
        ctx = RingCtx(n)
        i2 = build_i2(ctx, FP)
        for s in range(2, n - 1):
            tnt_check(Nesting([family_I1(ctx, FP, s), i2]))
    assert census_counts["I2:6"] == census_counts["I2:7"] == 1
    assert census_counts["transform"] == counts["transform"]
    assert all(r.error is None for r in recs)


def test_census_frees_each_i2_after_the_last_cell_of_its_n(monkeypatch):
    build_i2 = strata.family_I2
    built = {}

    def tracked_family_i2(ctx, fld):
        ideal = build_i2(ctx, fld)
        built[ctx.n] = weakref.ref(ideal)
        return ideal

    monkeypatch.setattr(strata, "family_I2", tracked_family_i2)
    alive = []
    for rec in census((6, 7), fld=FP, seed=0):
        if rec.n == 7:  # every n = 6 record has been yielded
            gc.collect()
            alive.append(built[6]() is not None)
    assert sorted(built) == [6, 7]
    assert alive and not any(alive)
    gc.collect()
    assert built[7]() is None  # the census empties the slot when it returns


def test_census_parent_builds_no_i2_under_a_pool(monkeypatch):
    def no_family_i2(ctx, fld):
        raise AssertionError("the parent built an I2")

    # spawned workers import strata afresh and do not see this patch
    monkeypatch.setattr(strata, "family_I2", no_family_i2)
    monkeypatch.setattr(strata, "_usable_cores", lambda: 2)
    recs = list(census((6, 6), fld=FP, seed=0, threads=2))
    assert [r.s for r in recs] == list(range(7))
    assert all(r.error is None for r in recs)
    assert [r.tnt for r in recs if 2 <= r.s <= 4] == ["certified"] * 3


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    def __init__(self, seen, max_workers, mp_context=None):
        seen.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, **kwargs):
        pass


@pytest.mark.parametrize("threads, cores, expected", [
    (64, 2, [2]),   # capped by the cores
    (64, 64, [5]),  # capped by the 5 cells of n = 4
    (3, 64, [3]),
    (2, 1, []),     # one usable core: no pool
    (1, 64, []),
])
def test_census_caps_its_worker_count(monkeypatch, threads, cores, expected):
    seen = []
    monkeypatch.setattr(strata, "ProcessPoolExecutor",
                        lambda *a, **kw: _RecordingPool(seen, *a, **kw))
    monkeypatch.setattr(strata, "_usable_cores", lambda: cores)
    recs = list(census((4, 4), fld=FP, seed=0, threads=threads))
    assert seen == expected and len(recs) == 5


def test_census_resumes_after_a_torn_final_line(tmp_path):
    store = tmp_path / "census.jsonl"
    list(census((4, 4), fld=FP, seed=0, store_path=str(store)))
    lines = store.read_text().splitlines(keepends=True)
    torn = json.loads(lines[-1])
    # an append cut off mid-line by a crash
    store.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    again = list(census((4, 4), fld=FP, seed=0, store_path=str(store)))
    assert [(r.n, r.s) for r in again] == [(torn["n"], torn["s"])]
    stored = [json.loads(line) for line in store.read_text().splitlines()]
    assert len(stored) == len(lines)
    assert {k: v for k, v in stored[-1].items() if k != "elapsed_ms"} == \
        {k: v for k, v in torn.items() if k != "elapsed_ms"}


def test_census_csv_skips_a_torn_final_line(tmp_path):
    store = tmp_path / "census.jsonl"
    list(census((4, 5), fld=FP, seed=0, store_path=str(store)))
    lines = store.read_text().splitlines(keepends=True)
    torn = json.loads(lines[-1])
    store.write_text("".join(lines[:-1]))
    whole = census_csv(str(store), "F32003", 0)
    # an append cut off mid-line by a crash: read as if it were not there
    torn_text = "".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2]
    store.write_text(torn_text)
    assert census_csv(str(store), "F32003", 0) == whole
    assert whole.splitlines()[-1].split(",")[1 + torn["s"]] == ""
    assert store.read_text() == torn_text  # only a resuming census cuts the tail


def test_census_retries_error_records_on_resume(tmp_path):
    store = tmp_path / "census.jsonl"
    first = list(census((6, 6), fld=FP, seed=0, store_path=str(store)))
    clean = next(r.to_json() for r in first if r.s == 2)
    failed = {k: v for k, v in clean.items()
              if k not in ("t_minus_one", "t_nonneg", "theta_rank", "tnt")}
    failed["error"] = "MemoryError: "
    lines = store.read_text().splitlines()
    store.write_text("".join(json.dumps(failed, sort_keys=True) + "\n"
                             if json.loads(line)["s"] == 2 else line + "\n"
                             for line in lines))
    again = list(census((6, 6), fld=FP, seed=0, store_path=str(store)))
    assert [(r.n, r.s) for r in again] == [(6, 2)]
    last = [json.loads(line) for line in store.read_text().splitlines()
            if json.loads(line)["s"] == 2][-1]
    strip = lambda rec: {k: v for k, v in rec.items() if k != "elapsed_ms"}
    assert "error" not in last and strip(last) == strip(clean)
    assert list(census((6, 6), fld=FP, seed=0, store_path=str(store))) == []
    row = census_csv(str(store), "F32003", 0).splitlines()[1].split(",")
    assert row[1 + 2] == f"{clean['gap']}^{clean['t_minus_one']}"


def test_rational_census_cell_matches_the_committed_prime_field_record(monkeypatch):
    # a cross-field oracle: the (13, 2) cell over QQ, whose 1692 x 1174
    # constraint matrix of rank 1161 takes the lifted kernel, against the
    # F_32003 record in the committed census store
    monkeypatch.setattr(strata, "_i2_slot", {})
    store = Path(__file__).resolve().parents[1] / "runs" / "census_full.jsonl"
    want = next(r for r in map(json.loads, store.read_text().splitlines())
                if (r["n"], r["s"]) == (13, 2))
    got = strata._census_cell(13, 2, QQ, want["seed"]).to_json()
    assert (want["field"], got["field"]) == ("F32003", "rational")
    drop = ("field", "elapsed_ms")
    assert {k: v for k, v in got.items() if k not in drop} == \
        {k: v for k, v in want.items() if k not in drop}
