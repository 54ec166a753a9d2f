"""Closed-form stratum dimensions, smoothability gaps, non-reducedness
certificates, and the (n, s) parameter census.

The dimension formulas are exact integer arithmetic; tangent computations at
explicit family nestings provide the verification half of each census record.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb
from multiprocessing import get_context

from .ideals import HomogeneousIdeal, Nesting, family_I1, family_I2
from .linalg import DEFAULT_PRIME, FieldSpec
from .ring import RingCtx
from .tangent import TNT_CERTIFIED, TangentReport, sandwich_insert, tnt_check


class StrataError(ValueError):
    pass


class HasLinearSyzygies(StrataError):
    pass


class NotTwoStepProfile(StrataError):
    pass


def smoothable_dim(colengths: tuple[int, ...], n: int) -> int:
    """Dimension n*d_r of the distinguished component of the nested Hilbert scheme."""
    if not colengths or any(c <= 0 for c in colengths):
        raise StrataError("colengths must be positive")
    if list(colengths) != sorted(colengths):
        raise StrataError("colengths must be non-decreasing")
    return n * colengths[-1]


@dataclass
class TwoStepDimResult:
    value: int
    order: int
    warning: str | None = None


def two_step_stratum_dim(q: tuple[int, ...], n: int) -> TwoStepDimResult:
    """Moduli count h(k)q(k) + (h(k+1)-(n-1)h(k))q(k+1) for a 2-step quotient
    Hilbert function q, with h = h_R - q the ideal's Hilbert function.

    The formula requires the ideal side to have no linear syzygies, i.e.
    h(k+1) - n h(k) >= 0.  When that fails but q(k+1) = 0 the offending term
    vanishes, so the value is still returned, with a warning attached.
    """
    ctx = RingCtx(n)
    h = lambda d: ctx.dim(d) - (q[d] if d < len(q) else 0)
    k = next((d for d in range(1, len(q) + 1) if h(d) > 0), None)
    if k is None:
        raise NotTwoStepProfile("no ideal order detected")
    if len(q) > k + 2:
        raise NotTwoStepProfile(f"profile extends beyond order+2 (order {k})")
    qk = q[k] if k < len(q) else 0
    qk1 = q[k + 1] if k + 1 < len(q) else 0
    value = h(k) * qk + (h(k + 1) - (n - 1) * h(k)) * qk1
    if h(k + 1) - n * h(k) < 0:
        if qk1 != 0:
            raise HasLinearSyzygies(
                f"h_I({k + 1}) - {n} h_I({k}) = {h(k + 1) - n * h(k)} < 0")
        return TwoStepDimResult(value, k, warning="linear syzygies present; "
                                "value valid only because q(k+1) = 0")
    return TwoStepDimResult(value, k)


def compressed_1n2_dim(n: int) -> int:
    """The (1,n,2) stratum is a Grassmannian of planes in the quadrics."""
    if n < 2:
        raise StrataError("need n >= 2")
    return 2 * (comb(n + 1, 2) - 2)


def nested_stratum_dim_1s_1n2(n: int, s: int) -> int:
    """Stratum of ((1,s),(1,n,2)) nestings: the compressed stratum times Gr(s, n)."""
    if not 1 <= s <= n:
        raise StrataError(f"s={s} out of range")
    return compressed_1n2_dim(n) + s * (n - s)


def gap_formula(n: int, s: int) -> int:
    return n * (1 - s) + 4 + s * s


GAP_STRICT = "non_smoothable_by_dimension"
GAP_BOUNDARY = "boundary"
GAP_INCONCLUSIVE = "inconclusive_by_dimension"


@dataclass
class GapReport:
    n: int
    s: int
    dim_smoothable: int
    dim_stratum_total: int
    gap: int
    verdict: str

    def to_json(self) -> dict:
        return {"schema": 1, "n": self.n, "s": self.s,
                "dim_smoothable": self.dim_smoothable,
                "dim_stratum_total": self.dim_stratum_total,
                "gap": self.gap, "verdict": self.verdict}


def gap(n: int, s: int) -> GapReport:
    """Smoothable dimension minus (stratum dimension + n support translations)."""
    if n < 4 or not 2 <= s <= n - 2:
        raise StrataError(f"(n,s)=({n},{s}) outside 4<=n, 2<=s<=n-2")
    sm = smoothable_dim((s + 1, n + 3), n)
    stratum_total = nested_stratum_dim_1s_1n2(n, s) + n
    g = sm - stratum_total
    if g != gap_formula(n, s):
        raise StrataError("internal: gap subtraction disagrees with closed form")
    verdict = GAP_STRICT if g < 0 else (GAP_BOUNDARY if g == 0 else GAP_INCONCLUSIVE)
    return GapReport(n, s, sm, stratum_total, g, verdict)


def reduce_to_embedding_dim(h: tuple[int, ...], n: int) -> tuple[int, int]:
    """Reduce an r=1 stratum from n variables to h(1) ones.

    Returns (h1, offset) with dim H^n_h = dim H^{h1}_h + offset, where the
    offset counts the Grassmannian of linear parts and the affine bundle.
    """
    if len(h) < 2 or h[0] != 1:
        raise StrataError("profile must start (1, h1, ...)")
    h1 = h[1]
    if n < h1:
        raise StrataError(f"need n >= h(1) = {h1}")
    d = sum(h)
    offset = h1 * (n - h1) + (n - h1) * (d - h1 - 1)
    return h1, offset


# ------------------------------------------------------ non-reducedness


@dataclass
class NonreducednessReport:
    hypotheses_met: bool
    dim_v: int
    base: TangentReport
    sandwiched: TangentReport
    base_defect: int
    sandwiched_defect: int
    certified: bool

    def to_json(self) -> dict:
        return {"schema": 1, "hypotheses_met": self.hypotheses_met,
                "dim_v": self.dim_v,
                "base": self.base.to_json(), "sandwiched": self.sandwiched.to_json(),
                "base_defect": self.base_defect,
                "sandwiched_defect": self.sandwiched_defect,
                "certified": self.certified}


def nonreducedness_certificate(nest: Nesting, j: int, k: int) -> NonreducednessReport:
    """Certify a generically non-reduced component by a sandwich TNT defect.

    The sandwiched nesting acquires negative tangents that the derivative map
    cannot reach while the base nesting has none: the forgetful map identifies
    the underlying reduced loci, so the extra tangents are nilpotent
    directions.
    """
    base = tnt_check(nest)
    enlarged = sandwich_insert(nest, j, k)
    sandwiched = tnt_check(enlarged)
    base_defect = base.t_neg - base.theta_rank
    sand_defect = sandwiched.t_neg - sandwiched.theta_rank
    hypotheses = base.tnt == TNT_CERTIFIED
    dim_v = base.t_nonneg + nest.ctx.n
    return NonreducednessReport(
        hypotheses_met=hypotheses, dim_v=dim_v, base=base, sandwiched=sandwiched,
        base_defect=base_defect, sandwiched_defect=sand_defect,
        certified=hypotheses and base_defect == 0 and sand_defect > 0)


# ------------------------------------------------------------ theorem C


IARROBINO_PROFILE = (1, 3, 6, 10, 15, 21, 17, 5)
TWO_STEP_SURFACE_PROFILE = (1, 3, 6, 8, 4)


@dataclass
class ThmCReport:
    multiplicity: int
    covered: bool
    profile: tuple[int, ...] | None = None
    colength: int | None = None
    profile_length: int | None = None
    stratum_dim: int | None = None
    smoothable_dim: int | None = None
    containment_argument: str | None = None
    iarrobino: dict | None = None

    def to_json(self) -> dict:
        out = {"schema": 1, "multiplicity": self.multiplicity, "covered": self.covered}
        if self.covered:
            out.update({
                "profile": list(self.profile), "colength": self.colength,
                "profile_length": self.profile_length,
                "stratum_dim": self.stratum_dim,
                "smoothable_dim": self.smoothable_dim,
                "containment_argument": self.containment_argument,
            })
            if self.iarrobino:
                out["iarrobino"] = self.iarrobino
        else:
            out["note"] = ("low multiplicities are open; all rational-double-point "
                           "singularities have multiplicity 2")
        return out


def thmC_report(multiplicity: int) -> ThmCReport:
    """Reducibility arithmetic for points on a singular surface in 3-space.

    For multiplicity at least 5 the two-step profile (1,3,6,8,4) of colength 22
    has length 5, so every ideal with that quotient profile contains the fifth
    power of the maximal ideal, hence the surface equation; its stratum is as
    big as the smoothable family of the surface.
    """
    if multiplicity < 1:
        raise StrataError("multiplicity must be positive")
    if multiplicity < 5:
        return ThmCReport(multiplicity, covered=False)
    q = TWO_STEP_SURFACE_PROFILE
    colength = sum(q)
    stratum = two_step_stratum_dim(q, 3).value
    smooth = smoothable_dim((colength,), 2)
    report = ThmCReport(
        multiplicity, covered=True, profile=q, colength=colength,
        profile_length=len(q), stratum_dim=stratum, smoothable_dim=smooth,
        containment_argument=(
            f"profile has length {len(q)}, so any ideal with this quotient "
            f"profile contains m^{len(q)}; a surface equation of order >= "
            f"{len(q)} lies in every such ideal"))
    if multiplicity >= 8:
        report.iarrobino = {
            "profile": list(IARROBINO_PROFILE),
            "colength": sum(IARROBINO_PROFILE),
            "profile_length": len(IARROBINO_PROFILE),
        }
    return report


# ---------------------------------------------------------------- census


@dataclass
class CensusRecord:
    n: int
    s: int
    field: str
    seed: int
    gap: int
    verdict: str | None = None
    t_minus_one: int | None = None
    t_nonneg: int | None = None
    theta_rank: int | None = None
    tnt: str | None = None
    stratum_warning: str | None = None
    error: str | None = None
    elapsed_ms: int | None = None

    def key(self) -> tuple:
        return (self.n, self.s, self.field, self.seed)

    def to_json(self) -> dict:
        out = {"schema": 1, "n": self.n, "s": self.s, "field": self.field,
               "seed": self.seed, "gap": self.gap}
        for name in ("verdict", "t_minus_one", "t_nonneg", "theta_rank", "tnt",
                     "stratum_warning", "error", "elapsed_ms"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


_i2_slot: dict[tuple[int, str], HomogeneousIdeal] = {}  # the I2 of this process's last n


def _census_cell(n: int, s: int, fld: FieldSpec, seed: int) -> CensusRecord:
    rec = CensusRecord(n=n, s=s, field=fld.label, seed=seed, gap=gap_formula(n, s))
    key = (n, fld.label)
    if key not in _i2_slot:  # a cell of another n frees the last n's I2
        _i2_slot.clear()
    if 2 <= s <= n - 2:
        rec.verdict = gap(n, s).verdict
        t0 = time.monotonic()
        try:
            if key not in _i2_slot:  # one I2, and so one e_struct cache, per n
                _i2_slot[key] = family_I2(RingCtx(n), fld)
            i2 = _i2_slot[key]
            nest = Nesting([family_I1(i2.ctx, fld, s), i2])
            rep = tnt_check(nest)
            rec.t_minus_one = rep.t_at(-1)
            rec.t_nonneg = rep.t_nonneg
            rec.theta_rank = rep.theta_rank
            rec.tnt = rep.tnt
            stratum = nested_stratum_dim_1s_1n2(n, s)
            if rep.t_nonneg < stratum:
                # the tangent dimension at a point can never undercut the
                # dimension of the stratum through it
                rec.stratum_warning = (f"t_nonneg {rep.t_nonneg} below stratum "
                                       f"dimension {stratum}")
        except Exception as ex:  # per-record capture, never abort the stream
            rec.error = f"{type(ex).__name__}: {ex}"
        rec.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rec


def _usable_cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def census(n_range: tuple[int, int], fld: FieldSpec | None = None, seed: int = 0,
           store_path: str | None = None, threads: int = 1):
    """Stream census records over the (n, s) grid with s = 0..n, resumably.

    Existing (n, s, field, seed) keys in the JSONL store are not recomputed
    unless their last record carries an error; a retry appends a new line.
    A torn final line, left by an interrupted append, is cut off first.
    Records are appended and yielded in grid order by this process, the
    store's one writer.  ``threads`` counts worker processes: up to min(threads,
    pending cells, usable cores) start, by ``spawn``, so a calling script needs
    an ``if __name__ == "__main__"`` guard and cannot be fed on stdin.  Each
    process keeps the I2 of its last n; this one drops its own at the end.
    """
    if n_range[0] < 4:  # the domain of gap()
        raise StrataError(f"census needs n >= 4, got nmin={n_range[0]}")
    fld = fld or FieldSpec.prime(DEFAULT_PRIME)
    done = set()
    if store_path and os.path.exists(store_path):
        done = {key for key, rec in _read_store(store_path, cut_torn_tail=True).items()
                if "error" not in rec}
    cells = [(n, s) for n in range(n_range[0], n_range[1] + 1)
             for s in range(0, n + 1) if (n, s, fld.label, seed) not in done]
    workers = min(threads, len(cells), _usable_cores())
    out = open(store_path, "a") if store_path else None
    pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn")) if workers > 1 else None
    try:
        for rec in (pool.map if pool else map)(
                _census_cell, [n for n, _ in cells], [s for _, s in cells],
                [fld] * len(cells), [seed] * len(cells)):
            if out:
                out.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
                out.flush()
            yield rec
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        if out:
            out.close()
        _i2_slot.clear()


def _read_store(store_path: str, cut_torn_tail: bool = False) -> dict[tuple, dict]:
    """The last record per (n, s, field, seed) key of a JSONL census store.
    A torn final line, left by an interrupted append, is skipped, and with
    ``cut_torn_tail`` cut off, so that appends resume on a line boundary."""
    with open(store_path, "rb+" if cut_torn_tail else "rb") as fh:
        data = fh.read()
        whole = data.rfind(b"\n") + 1
        if cut_torn_tail and whole < len(data):
            fh.truncate(whole)
    records = {}
    for line in data[:whole].decode().splitlines():
        if line.strip():
            rec = json.loads(line)
            records[(rec["n"], rec["s"], rec["field"], rec["seed"])] = rec
    return records


def census_csv(store_path: str, field_label: str, seed: int = 0) -> str:
    """Figure-style grid: rows n, columns s, each cell gap^t."""
    cells: dict[tuple[int, int], str] = {}
    ns: set[int] = set()
    for (n, s, field, rec_seed), rec in _read_store(store_path).items():
        if field != field_label or rec_seed != seed:
            continue
        ns.add(n)
        cell = str(rec["gap"])
        if rec.get("t_minus_one") is not None:
            cell += f"^{rec['t_minus_one']}"
        cells[(n, s)] = cell
    if not ns:
        return ""
    smax = max(n for n in ns)
    lines = ["n\\s," + ",".join(str(s) for s in range(smax + 1))]
    for n in sorted(ns):
        row = [str(n)]
        for s in range(smax + 1):
            row.append(cells.get((n, s), ""))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
