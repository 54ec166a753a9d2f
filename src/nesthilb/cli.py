"""Command line interface.

Subcommands: hilb, betti, tangent, tnt, hom, sandwich, gap, census, thmC,
verify.  Ideal arguments accept named builtins (delta:n, J:n, I2:n, I1:n,s,
m^k:n, 8points, twistedcone, generic:q=(...),seed=S), inline generator lists
(gens(n): p1; p2; ...) or files (file(n):path); nestings chain ideal specs
with '>'.  All outputs are deterministic for a fixed field and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .linalg import DEFAULT_PRIME, FieldSpec
from .parsing import parse_ideal_spec, parse_nesting_spec
from .resolutions import betti_table
from .strata import census, census_csv, gap, thmC_report
from .tangent import sandwich_identity_check, tnt_check
from .verify import FIXTURES, run_verify

def _field(args) -> FieldSpec:
    return FieldSpec.parse(args.field)


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_hilb(args) -> int:
    ideal = parse_ideal_spec(args.ideal, _field(args), n=args.n, cutoff=args.cutoff)
    h = ideal.hilbert_function()
    payload = {"schema": 1, "hilbert_function": list(h.entries),
               "truncated": h.truncated, "field": ideal.fld.label}
    if not h.truncated:
        payload["colength"] = h.size
    _emit(args, payload, f"h = {h}" + ("" if h.truncated else f"  (colength {h.size})"))
    return 0


def cmd_betti(args) -> int:
    ideal = parse_ideal_spec(args.ideal, _field(args), n=args.n, cutoff=args.cutoff)
    bt = betti_table(ideal)
    _emit(args, bt.to_json(), bt.staircase())
    return 0


def cmd_tangent(args) -> int:
    nest = parse_nesting_spec(args.nesting, _field(args), n=args.n)
    e_range = (args.e, args.e) if args.e is not None else None
    rep = tnt_check(nest, e_range=e_range)
    human = (f"degrees: {rep.degrees}\n"
             f"t_neg={rep.t_neg} t_nonneg={rep.t_nonneg} theta_rank={rep.theta_rank} "
             f"tnt={rep.tnt} [{rep.field_label}]")
    _emit(args, rep.to_json(), human)
    return 0


def cmd_tnt(args) -> int:
    nest = parse_nesting_spec(args.nesting, _field(args), n=args.n)
    rep = tnt_check(nest)
    _emit(args, rep.to_json(),
          f"tnt={rep.tnt} (t(-1)={rep.t_at(-1)}, theta_rank={rep.theta_rank}, "
          f"below: {sum(v for e, v in rep.degrees.items() if e <= -2)})")
    return 0 if rep.tnt == "certified" else 1


def cmd_hom(args) -> int:
    from .ideals import IdealError, quotient_module, subquotient_module, zero_ideal
    from .tangent import graded_hom_dims

    fld = _field(args)
    cache: dict = {}

    def subq(spec: str):
        top_s, _, bot_s = spec.partition("/")
        bot = parse_ideal_spec(bot_s.strip(), fld, n=args.n, ctx_cache=cache) \
            if bot_s.strip() not in ("0", "") else None
        if top_s.strip() == "R":
            if bot is None:
                raise IdealError("R/0 is not finite")
            return quotient_module(bot)
        top = parse_ideal_spec(top_s.strip(), fld, n=args.n, ctx_cache=cache)
        if bot is None:
            hi = top.cutoff + 4 if args.hi is None else args.hi
            return subquotient_module(top, zero_ideal(top.ctx, fld, cutoff=hi), hi=hi)
        return subquotient_module(top, bot)

    source = subq(args.source)
    target = subq(args.target)
    dims = graded_hom_dims(source, target)
    payload = {"schema": 1, "dims": {str(e): v for e, v in sorted(dims.items())},
               "total": sum(dims.values()), "field": fld.label}
    _emit(args, payload, f"hom dims by degree: {dims} (total {sum(dims.values())})")
    return 0


def cmd_sandwich(args) -> int:
    nest = parse_nesting_spec(args.nesting, _field(args), n=args.n)
    rep = sandwich_identity_check(nest, args.j, args.k)
    human = (f"hypotheses_met={rep.hypotheses_met}\n"
             f"base t_neg={rep.base.t_neg} (t(-1)={rep.base.t_at(-1)}); "
             f"enlarged t_neg={rep.enlarged.t_neg} (t(-1)={rep.enlarged.t_at(-1)})\n"
             f"hom term={rep.hom_dims} total={rep.hom_total}\n"
             f"identity discrepancy={rep.identity_discrepancy}; jump(-1)={rep.jump_minus1} "
             f"vs q(k)i(k-1)={rep.jump_formula_k_km1}, "
             f"q(k-1)i(k-1)={rep.jump_formula_km1_km1} -> {rep.matching_convention()}\n"
             f"t_nonneg unchanged: {rep.t_nonneg_unchanged}")
    _emit(args, rep.to_json(), human)
    return 0


def cmd_gap(args) -> int:
    rep = gap(args.n, args.s)
    _emit(args, rep.to_json(),
          f"gap({args.n},{args.s}) = {rep.gap} ({rep.verdict}); smoothable "
          f"{rep.dim_smoothable} vs stratum+n {rep.dim_stratum_total}")
    return 0


def cmd_census(args) -> int:
    fld = _field(args)
    try:
        threads = int(os.environ.get("NESTHILB_THREADS", "1"))
    except ValueError:
        raise ValueError("NESTHILB_THREADS must be an integer, got "
                         f"{os.environ['NESTHILB_THREADS']!r}") from None
    if threads > 1:  # each spawned worker reads these as it loads numpy
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    produced = 0
    for rec in census((args.nmin, args.nmax), fld=fld, seed=args.seed,
                      store_path=args.store, threads=threads):
        produced += 1
        if not args.json:
            t = f" t(-1)={rec.t_minus_one} tnt={rec.tnt}" if rec.tnt else ""
            err = f" error={rec.error}" if rec.error else ""
            print(f"(n={rec.n}, s={rec.s}) gap={rec.gap}{t}{err}")
        else:
            print(json.dumps(rec.to_json(), sort_keys=True))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(census_csv(args.store, fld.label, args.seed))
    if not args.json:
        print(f"{produced} new records"
              + (f" appended to {args.store}" if args.store else ""))
    return 0


def cmd_thmc(args) -> int:
    rep = thmC_report(args.multiplicity)
    if rep.covered:
        human = (f"multiplicity {args.multiplicity}: reducible from colength "
                 f"{rep.colength} on; stratum dim {rep.stratum_dim} = smoothable "
                 f"dim {rep.smoothable_dim}; {rep.containment_argument}")
    else:
        human = f"multiplicity {args.multiplicity}: not covered (open range)"
    _emit(args, rep.to_json(), human)
    return 0


def cmd_verify(args) -> int:
    fld = _field(args)
    names = args.filter.split(",") if args.filter else None
    if names is not None:
        known = {name for name, *_ in FIXTURES}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown fixture name(s) {', '.join(unknown)}; "
                             f"known: {', '.join(sorted(known))}")
    results = run_verify(names, fld)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        failed += 0 if (r.passed or r.skipped) else 1
        print(f"{status}  {r.name:<{width}}  {r.elapsed:7.2f}s  {r.detail}")
    print(f"{len(results)} fixtures, {failed} failed")
    return 1 if failed else 0


FLAGS = {
    "--field": dict(help="rational | prime:P | F<P>"),
    "--seed": dict(type=int, default=0),
    "--json": dict(action="store_true", help="machine output"),
    "--n": dict(type=int, help="number of variables for bare specs"),
    "--cutoff": dict(type=int, help="truncation degree override"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nesthilb",
        description="Exact tangent spaces and strata for nested Hilbert schemes "
                    "of fat points.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, field="rational"):
        """Add the shared flags this subcommand reads, and no others."""
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        if "--field" in flags:
            p.set_defaults(field=field)

    p = sub.add_parser("hilb", help="Hilbert function of an ideal")
    p.add_argument("ideal")
    common(p, "--field", "--json", "--n", "--cutoff")
    p.set_defaults(fn=cmd_hilb)

    p = sub.add_parser("betti", help="graded Betti table of an m-primary ideal")
    p.add_argument("ideal")
    common(p, "--field", "--json", "--n", "--cutoff")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("tangent", help="graded tangent report at a nesting")
    p.add_argument("nesting", help="ideal specs joined by '>'")
    p.add_argument("-e", type=int, help="single weight instead of the full window")
    common(p, "--field", "--json", "--n")
    p.set_defaults(fn=cmd_tangent)

    p = sub.add_parser("tnt", help="trivial-negative-tangents verdict")
    p.add_argument("nesting")
    common(p, "--field", "--json", "--n")
    p.set_defaults(fn=cmd_tnt)

    p = sub.add_parser("hom", help="graded Hom between two subquotients A/B")
    p.add_argument("source", help="e.g. 'm^3:4 / I2:4' or 'm^2:4 / 0'")
    p.add_argument("target")
    p.add_argument("--hi", type=int, help="top degree for unbounded sources")
    common(p, "--field", "--json", "--n")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("sandwich", help="sandwich identity check at (j, k)")
    p.add_argument("nesting")
    p.add_argument("-j", type=int, required=True,
                   help="insert after this many ideals (0 prepends)")
    p.add_argument("-k", type=int, required=True, help="power of m to insert")
    common(p, "--field", "--json", "--n")
    p.set_defaults(fn=cmd_sandwich)

    p = sub.add_parser("gap", help="smoothable-vs-stratum dimension gap")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    common(p, "--json")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("census", help="(n, s) grid census with JSONL store")
    p.add_argument("--nmin", type=int, default=4)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--store", help="JSONL path (resumable)")
    p.add_argument("--csv", help="also export the grid as CSV here")
    common(p, "--field", "--json", "--seed", field=f"prime:{DEFAULT_PRIME}")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("thmC", help="singular-surface reducibility arithmetic")
    p.add_argument("multiplicity", type=int)
    common(p, "--json")
    p.set_defaults(fn=cmd_thmc)

    p = sub.add_parser("verify", help="run the fixture suite")
    p.add_argument("--filter", help="comma-separated fixture names")
    common(p, "--field")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "census" and args.csv and not args.store:
        parser.error("census --csv exports the store: pass --store as well")
    try:
        return args.fn(args)
    except (ValueError, OSError) as ex:  # bad input: one line, not a traceback
        print(f"nesthilb {args.command}: error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
