"""The benchmark tracer patches package names by string: a rename of one of
them must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import nesthilb

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_tracer_covers_a_traced_tangent_solve(field, monkeypatch, spec="I1:4,2 > I2:4"):
    tracer = _load_spans().Tracer()
    # the constraint matrices the tracer counts, captured under its wrapper
    captured = []
    rank = nesthilb.linalg.Mat.rank

    def capturing_rank(m):
        if tracer.innermost() == "tangent.cons_rank":
            captured.append(m)
        return rank(m)

    monkeypatch.setattr(nesthilb.linalg.Mat, "rank", capturing_rank)
    tracer.install(nesthilb)
    try:
        rep = tracer.op("tnt", lambda: nesthilb.tnt_check(nesthilb.parse_nesting_spec(
            spec, nesthilb.FieldSpec.parse(field))))
    finally:
        tracer.uninstall()
    assert rep.tnt == "certified"
    summary = tracer.summary()
    assert summary["span_coverage"] >= 0.9
    assert summary["linalg.transform_cells"] > 0
    # the constraint rank must go through Mat.rank inside the solve, or it
    # drops out of the per-layer metrics
    assert summary["tangent.cons_rows"] > 0
    assert summary["tangent.cons_rank_s"] > 0
    # the tracer counts nonzeros from the storage itself: a storage change
    # that miscounts them must fail here
    assert captured
    assert summary["tangent.cons_nnz"] == sum(
        len(m.row_items(i)) for m in captured for i in range(m.nrows))
    return captured


def test_tracer_covers_a_traced_tangent_solve(monkeypatch):
    _check_tracer_covers_a_traced_tangent_solve("prime:32003", monkeypatch)


def test_tracer_covers_a_traced_rational_tangent_solve(monkeypatch):
    # the constraint rank and the transform take other paths over QQ
    _check_tracer_covers_a_traced_tangent_solve("rational", monkeypatch)


def test_tracer_counts_constraint_matrices_stored_on_rows(monkeypatch):
    # a GF(p) matrix at most 1/20 nonzero is stored on sparse rows, a denser
    # one as an array.  A GF(p) solve ranks only the link rows, which are
    # arrays in a pair I1 > I2; this chain of three has link ranks of both
    # forms, and the tracer's nonzero count must hold for each
    captured = _check_tracer_covers_a_traced_tangent_solve(
        "prime:32003", monkeypatch, "I1:6,2 > I1:6,3 > I2:6")
    assert {m.rows is not None for m in captured} == {True, False}
