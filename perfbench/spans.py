"""Span tracing of the nesthilb package, installed from outside.

``Tracer.install`` replaces public functions and methods of the package with
wrappers that record spans; ``Tracer.uninstall`` puts the originals back.
Nothing is patched unless a traced run asks for it, so untraced runs execute
the package unmodified.

A span records its name, kind, start, end and parent.  Three kinds exist:

* ``op``     -- one benchmark operation (a census cell, a TNT check, a verify
  run); opened by the benchmark itself.
* ``stage``  -- a call into a layer.  Its self time is its duration minus
  the durations of its ``stage`` children.
* ``kernel`` -- an elimination (``Mat.rref``).  Kernel spans are timers:
  they are summed per kernel and never subtracted from their parent, so the
  elimination done for a stage stays in that stage's self time.

Functions are patched in every ``nesthilb`` module that holds a reference to
them, because ``from .x import f`` binds the name again in the importer.
"""

from __future__ import annotations

import functools
import itertools
import resource
import sys
import threading
import time
from collections import defaultdict

# span name -> per-layer metric name of its self time
SELF_TIME_METRICS = {
    "ideals.build": "ideals.build_s",
    "ring.scatter": "ring.scatter_s",
    "tangent.solve": "tangent.solve_self_s",
    "tangent.estruct": "tangent.estruct_s",
    "linalg.transform": "linalg.transform_s",
    "tangent.cons_rank": "tangent.cons_rank_s",
    "tangent.theta": "tangent.theta_s",
    "linalg.matmul": "linalg.matmul_s",
    "linalg.kernel": "linalg.kernel_s",
    "tangent.oracle": "tangent.oracle_s",
    "resolutions.betti": "resolutions.betti_s",
    "resolutions.syzygy": "resolutions.syzygy_s",
}

KERNEL_METRICS = {"linalg.rref_p": "linalg.rref_p_s", "linalg.rref_q": "linalg.rref_q_s"}

# exact counts accumulated by the wrappers' hooks; like the call counts they
# are identical across runs of the same code on the same seed
COUNTED = ("linalg.rref_work", "linalg.transform_cells", "linalg.matmul_macs",
           "tangent.cons_rows", "tangent.cons_cols", "tangent.cons_nnz")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nnz(m) -> int:
    if m.field.is_rational:
        return sum(len(r) for r in m.rows)
    return int((m.arr != 0).sum())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, kind, start, end, parent id)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_rise_mb = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, amounts: dict[str, int]) -> None:
        with self._lock:
            for key, v in amounts.items():
                self.counts[key] += v

    def call(self, name: str, kind: str, fn, *args, **kwargs):
        """Run fn inside a span."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, kind, t0, t1, parent))

    def op(self, name: str, fn, *args, **kwargs):
        return self.call(name, "op", fn, *args, **kwargs)

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    # ------------------------------------------------------------- patching

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, make) -> None:
        self._set(cls, attr, make(getattr(cls, attr)))

    def patch_function(self, module, attr: str, make) -> None:
        """Wrap module.attr and rebind it wherever a nesthilb module holds it."""
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "nesthilb" and not name.startswith("nesthilb."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def spanned(self, name: str, account=None, kind: str = "stage"):
        """Wrapper factory: a span around each call, after an optional
        counting hook that sees the call's arguments."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if account is not None:
                    self._count(account(*args, **kwargs))
                return self.call(name, kind, fn, *args, **kwargs)
            return wrapper
        return make

    def install(self, nh) -> None:
        linalg, ring, ideals, tangent = nh.linalg, nh.ring, nh.ideals, nh.tangent
        resolutions, Mat = nh.resolutions, nh.linalg.Mat
        spanned = self.spanned

        def matmul_macs(a, b):
            return {"linalg.matmul_macs": a.nrows * a.ncols * b.ncols}

        def right_macs(p, rows_inner, cols_inner, b):
            return {"linalg.matmul_macs": p.nrows * rows_inner * cols_inner * b.ncols}

        def left_macs(p, rows_inner, cols_inner, t):
            return {"linalg.matmul_macs": t.nrows * rows_inner * p.nrows * cols_inner}

        def transform_cells(m, *args, **kwargs):
            return {"linalg.transform_cells": m.nrows * (m.ncols + m.nrows)}

        self.patch_function(ideals, "ideal_from_generators", spanned("ideals.build"))
        self.patch_function(ideals, "generic_ideal_with_hilbert_function",
                            spanned("ideals.build"))
        self.patch_function(ring, "scatter_rows", spanned("ring.scatter"))
        self.patch_function(tangent, "_solve", spanned("tangent.solve"))
        self.patch_function(tangent, "theta_rank", spanned("tangent.theta"))
        self.patch_function(tangent, "hom_dim_via_syzygies", spanned("tangent.oracle"))
        self.patch_function(resolutions, "betti_table", spanned("resolutions.betti"))
        self.patch_function(resolutions, "_syzygy_step", spanned("resolutions.syzygy"))
        self.patch_function(linalg, "right_mul_vecrows", spanned("linalg.matmul", right_macs))
        self.patch_function(linalg, "left_mul_vecrows", spanned("linalg.matmul", left_macs))
        self.patch_method(Mat, "matmul", spanned("linalg.matmul", matmul_macs))
        self.patch_method(Mat, "kernel_basis", spanned("linalg.kernel"))
        for cls in (tangent.IdealSource, tangent.ModuleSource):
            self.patch_method(cls, "e_struct", spanned("tangent.estruct"))
        self.patch_method(Mat, "rref_with_transform",
                          self._with_peak_rise(spanned("linalg.transform", transform_cells)))
        self.patch_method(Mat, "rank", self._constraint_rank)
        self.patch_method(Mat, "rref", self._rref_kernel)
        self.patch_function(nh.strata, "_census_cell", spanned("strata.cell", kind="op"))

    def _with_peak_rise(self, make):
        """Add the rise of the RSS high-water mark during each call."""
        def outer(fn):
            inner = make(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = _maxrss_mb()
                try:
                    return inner(*args, **kwargs)
                finally:
                    rise = _maxrss_mb() - before
                    with self._lock:
                        self.peak_rise_mb += rise
            return wrapper
        return outer

    def _constraint_rank(self, fn):
        """Mat.rank: only the constraint rank that ends a tangent solve is a
        stage; every other rank stays inside its caller's span."""
        @functools.wraps(fn)
        def wrapper(m):
            if self.innermost() != "tangent.solve":
                return fn(m)
            self._count({"tangent.cons_rows": m.nrows, "tangent.cons_cols": m.ncols,
                         "tangent.cons_nnz": _nnz(m)})
            return self.call("tangent.cons_rank", "stage", fn, m)
        return wrapper

    def _rref_kernel(self, fn):
        """Mat.rref: a kernel span per field, counting rank * rows * cols."""
        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            name = "linalg.rref_q" if m.field.is_rational else "linalg.rref_p"
            red, piv = self.call(name, "kernel", fn, m, *args, **kwargs)
            self._count({"linalg.rref_work": len(piv) * m.nrows * m.ncols})
            return red, piv
        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per-layer self times, kernel totals, exact counts and span coverage."""
        stage_children: dict[int, float] = defaultdict(float)
        kernel_children: dict[int, float] = defaultdict(float)
        for sid, name, kind, t0, t1, parent in self.spans:
            if kind == "kernel":
                kernel_children[parent] += t1 - t0
            else:
                stage_children[parent] += t1 - t0
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        op_time = unnamed = 0.0
        for sid, name, kind, t0, t1, parent in self.spans:
            d = t1 - t0
            calls[name] += 1
            if kind == "kernel":
                self_time[name] += d
            else:
                self_time[name] += d - stage_children[sid]
            if kind == "op":
                op_time += d
                unnamed += d - stage_children[sid] - kernel_children[sid]
        out = {metric: self_time.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
        for span, metric in KERNEL_METRICS.items():
            out[metric] = self_time.get(span, 0.0)
        out["linalg.rref_s"] = out["linalg.rref_p_s"] + out["linalg.rref_q_s"]
        out["linalg.peak_rise_mb"] = self.peak_rise_mb
        out["ideals.build_calls"] = calls["ideals.build"]
        out["ring.scatter_calls"] = calls["ring.scatter"]
        out["linalg.rref_calls"] = calls["linalg.rref_p"] + calls["linalg.rref_q"]
        for key in COUNTED:
            out[key] = self.counts.get(key, 0)
        out["span_coverage"] = 1.0 - unnamed / op_time if op_time else 0.0
        out["ops_s"] = op_time
        return out

    def op_durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, n, kind, t0, t1, _ in self.spans if kind == "op" and n == name]
