"""The benchmark workloads and the exact outputs they must reproduce.

A workload function runs one iteration against the ``nesthilb`` package and
returns one ``Op`` per checked operation, plus workload-specific timings.
A mismatch or an exception makes the op fail; the iteration always
completes.  Package functions are looked up on the package at call time, so
the tracing wrappers see every call.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

PINS = json.loads(Path(__file__).with_name("expected.json").read_text())
PRIME = 32003
SWEEP_RANGE = (8, 9)
SWEEP_THREADS = 1
GENERIC_PROFILE = (1, 4, 7, 2)


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


class NullTracer:
    """Stands in for spans.Tracer in untraced runs: no spans, no patches."""

    def op(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _checked(tracer, name: str, fn, *args) -> Op:
    try:
        problem = tracer.op(name, fn, *args)
    except Exception as ex:  # an exception is a failed op, never a crash
        return Op(name, False, f"{type(ex).__name__}: {ex}")
    return Op(name, problem is None, problem or "")


def _census_pin(n: int, s: int) -> dict:
    return next(r for r in PINS["census"] if (r["n"], r["s"]) == (n, s))


def _report_problem(label: str, rep) -> str | None:
    pin = PINS["tnt"][label]
    got = {"degrees": {str(e): v for e, v in rep.degrees.items()},
           "theta_rank": rep.theta_rank, "tnt": rep.tnt}
    return None if got == pin else f"{label}: got {got}, pinned {pin}"


# --------------------------------------------------------------- census_fp


def _family_cell(nh, n: int, s: int) -> str | None:
    fld = nh.FieldSpec.prime(PRIME)
    ctx = nh.RingCtx(n)
    rep = nh.tnt_check(nh.Nesting([nh.family_I1(ctx, fld, s), nh.family_I2(ctx, fld)]))
    problem = _report_problem(f"F{PRIME} I1:{n},{s} > I2:{n}", rep)
    if problem:
        return problem
    pin = _census_pin(n, s)
    got = {"t_minus_one": rep.t_at(-1), "t_nonneg": rep.t_nonneg,
           "theta_rank": rep.theta_rank, "tnt": rep.tnt}
    want = {k: pin[k] for k in got}
    return None if got == want else f"census ({n},{s}): got {got}, pinned {want}"


def census_fp(nh, seed: int, tracer, workdir: Path) -> tuple[list[Op], dict]:
    return [_checked(tracer, f"cell_{n}_{s}", _family_cell, nh, n, s)
            for n, s in ((10, 2), (13, 2))], {}


# ------------------------------------------------------------------ tnt_qq


def _family_pair_qq(nh) -> str | None:
    ctx = nh.RingCtx(8)
    rep = nh.tnt_check(nh.Nesting([nh.family_I1(ctx, nh.QQ, 2), nh.family_I2(ctx, nh.QQ)]))
    return _report_problem("rational I1:8,2 > I2:8", rep)


def _generic_qq(nh, seed: int) -> str | None:
    ideal = nh.generic_ideal_with_hilbert_function(nh.RingCtx(4), nh.QQ,
                                                   GENERIC_PROFILE, seed=seed)
    h = tuple(ideal.hilbert_function().entries)
    if h != GENERIC_PROFILE:
        return f"generic ideal has profile {h}, asked for {GENERIC_PROFILE}"
    return _report_problem("rational generic:q=(1,4,7,2)", nh.tnt_check(nh.Nesting([ideal])))


def tnt_qq(nh, seed: int, tracer, workdir: Path) -> tuple[list[Op], dict]:
    """The family pair, then three generic ideals seeded 3*seed .. 3*seed+2:
    the cost of one draw depends on its fraction growth, and three draws
    average that out."""
    ops = [_checked(tracer, "pair_8_2", _family_pair_qq, nh)]
    for g in range(3 * seed, 3 * seed + 3):
        ops.append(_checked(tracer, f"generic_seed_{g}", _generic_qq, nh, g))
    return ops, {}


# ------------------------------------------------------------------ verify


def verify(nh, seed: int, tracer, workdir: Path) -> tuple[list[Op], dict]:
    """run_verify() at its default field; every fixture must pass unskipped
    within its own budget.  Detail: verify.<fixture>_s from FixtureResult."""
    names = PINS["verify_fixtures"]
    try:
        results = tracer.op("verify.run", nh.verify.run_verify)
    except Exception as ex:
        return [Op(name, False, f"{type(ex).__name__}: {ex}") for name in names], {}
    by_name = {r.name: r for r in results}
    ops = []
    for name in names:
        r = by_name.get(name)
        if r is None:
            ops.append(Op(name, False, "fixture missing"))
        elif r.skipped or not r.passed:
            ops.append(Op(name, False, f"skipped={r.skipped} passed={r.passed}: {r.detail}"))
        else:
            ops.append(Op(name, True))
    return ops, {f"verify.{r.name}_s": r.elapsed for r in results}


# ------------------------------------------------------------ census_sweep


def census_sweep(nh, seed: int, tracer, workdir: Path) -> tuple[list[Op], dict]:
    """census() over a temporary store in workdir, serially: with two threads
    on two shared cores the sweep's wall time and peak RSS spread more than
    the bounds allow.  The range stops at n = 9 so that a run holds several
    sweeps.  Detail: the sweep's wall time and cells per second."""
    expected = {(r["n"], r["s"]): r for r in PINS["census"]
                if SWEEP_RANGE[0] <= r["n"] <= SWEEP_RANGE[1]}
    tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=workdir))
    store = tmp / "census.jsonl"
    ops: list[Op] = []
    try:
        t_start = time.perf_counter()
        yielded = [rec.to_json() for rec in nh.census(
            SWEEP_RANGE, nh.FieldSpec.prime(PRIME), seed=0, store_path=str(store),
            threads=SWEEP_THREADS)]
        wall = time.perf_counter() - t_start
        stored = [json.loads(line) for line in store.read_text().splitlines() if line.strip()]
    except Exception as ex:
        return [Op("census", False, f"{type(ex).__name__}: {ex}")] * len(expected), {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stored_by_key = {(r["n"], r["s"]): r for r in stored}
    got_by_key = {(r["n"], r["s"]): r for r in yielded}
    for key, pin in sorted(expected.items()):
        name = f"cell_{key[0]}_{key[1]}"
        got = got_by_key.get(key)
        if got is None:
            ops.append(Op(name, False, "record missing"))
            continue
        bad = {k: (got.get(k), v) for k, v in pin.items() if got.get(k) != v}
        if bad or "error" in got:
            ops.append(Op(name, False, f"mismatch (got, pinned): {bad} {got.get('error', '')}"))
        elif stored_by_key.get(key) != got:
            ops.append(Op(name, False, "store line differs from the yielded record"))
        else:
            ops.append(Op(name, True))
    if len(yielded) != len(expected) or len(stored) != len(expected):
        ops.append(Op("record_count", False,
                      f"{len(yielded)} yielded, {len(stored)} stored, {len(expected)} pinned"))
    return ops, {"strata.sweep_wall_s": wall, "cells_per_s": len(yielded) / wall}


# ----------------------------------------------------------------- warm-up


def warm_up(nh) -> None:
    """One tiny solve, so lazy numpy/BLAS set-up is not charged to a workload."""
    fld = nh.FieldSpec.prime(PRIME)
    ctx = nh.RingCtx(4)
    rep = nh.tnt_check(nh.Nesting([nh.family_I1(ctx, fld, 2), nh.family_I2(ctx, fld)]))
    if rep.tnt != "certified":
        raise RuntimeError(f"warm-up solve gave {rep.tnt}")


WORKLOADS = {
    "census_fp": census_fp,
    "tnt_qq": tnt_qq,
    "verify": verify,
    "census_sweep": census_sweep,
}
