"""Compare two result files written by run.py (``--out``, one JSON record per run).

For each workload and end-to-end metric it prints both sides' median and
quartiles over the untraced runs and a verdict against the metric's bound:

* ``unresolved`` -- either side's quartile spread exceeds the bound, unless
  every new run beats every base run;
* ``worse``      -- the new median is worse than the base median by more than
  the bound;
* ``improved``   -- the new median is better by more than the base quartile
  spread and the new side wins at least nine tenths of the run pairs;
* ``unchanged``  -- otherwise.

For traced runs it prints the per-layer medians and their deltas.  Exact counts
must repeat across the traced runs of one file with the same workload and
seed; a count that drifts is a benchmark error and makes the exit code 1.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float, lower_better: bool) -> str:
    sign = 1.0 if lower_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max((b3 - b1) / bm, (n3 - n1) / nm) > bound:
        return "improved" if all_better else "unresolved"
    change = sign * (nm - bm) / bm  # positive is worse
    if change > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if -change * bm > (b3 - b1) and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def count_drift(records: list[dict], count_names: list[str]) -> list[str]:
    """Counts that differ between traced runs of one workload and seed."""
    seen: dict[tuple, dict] = {}
    drift = []
    for rec in records:
        if not rec["trace"]:
            continue
        key = (rec["workload"], rec["seed"])
        counts = {k: rec["detail"].get(k) for k in count_names}
        if key in seen and seen[key] != counts:
            diff = {k: (seen[key][k], v) for k, v in counts.items() if seen[key][k] != v}
            drift.append(f"{key[0]} seed {key[1]}: {diff}")
        seen.setdefault(key, counts)
    return drift


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def main(base_path: Path, new_path: Path, spec: dict) -> int:
    base, new = load(base_path), load(new_path)
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    status = 0
    for label, records in (("base", base), ("new", new)):
        for line in count_drift(records, count_names):
            print(f"BENCHMARK ERROR: count drift in {label}: {line}")
            status = 1
        bad = [r for r in records if not r["correct"]]
        if bad:
            print(f"{label}: {len(bad)} run(s) with failed ops")

    by = defaultdict(lambda: defaultdict(list))  # (side, trace) -> workload -> records
    for side, records in (("base", base), ("new", new)):
        for rec in records:
            by[(side, rec["trace"])][rec["workload"]].append(rec)

    print("\nend to end (untraced runs): median [q1, q3]")
    for wl in sorted(set(by[("base", 0)]) & set(by[("new", 0)])):
        b_runs, n_runs = by[("base", 0)][wl], by[("new", 0)][wl]
        print(f"{wl}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            v = verdict(bv, nv, m["bound"], m["better"] == "lower")
            b1, bm, b3 = quartiles(bv)
            n1, nm, n3 = quartiles(nv)
            print(f"  {name:<12} base {_fmt(bm)} [{_fmt(b1)}, {_fmt(b3)}]  "
                  f"new {_fmt(nm)} [{_fmt(n1)}, {_fmt(n3)}] {m['unit']}  "
                  f"{(nm - bm) / bm:+.1%}  {v} (bound {m['bound']:.0%})")

    print("\nper layer (traced runs): median base -> new")
    for wl in sorted(set(by[("base", 1)]) & set(by[("new", 1)])):
        b_runs, n_runs = by[("base", 1)][wl], by[("new", 1)][wl]
        print(f"{wl}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        keys = sorted(set().union(*(r["detail"] for r in b_runs + n_runs)))
        for key in keys:
            bv = [r["detail"][key] for r in b_runs if isinstance(r["detail"].get(key), (int, float))]
            nv = [r["detail"][key] for r in n_runs if isinstance(r["detail"].get(key), (int, float))]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            rel = f"{(nm - bm) / bm:+.1%}" if bm else ""
            print(f"  {key:<30} {_fmt(bm):>10} -> {_fmt(nm):>10}  {nm - bm:+.4g} {rel}")
    return status
