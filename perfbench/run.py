"""Outside-in benchmark of the nesthilb package.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload census_fp --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics: it times fresh interpreters
for set-up, then runs the whole number of workload iterations that comes
closest to ``--seconds`` (at least one) and reports the median iteration.  ``--trace 1``
runs one traced and then one untraced iteration and reports the per-layer
metrics.  Every output is checked against pinned exact values.  The last
line of standard output is the result as JSON; the same record, with the
environment and the workload-specific detail, is appended to ``--out``.

Compare two result files (see compare.py):

    python3 perfbench/run.py --compare base.jsonl new.jsonl
"""

from __future__ import annotations

import os

# one BLAS thread, so timings do not depend on how many cores BLAS detects;
# set before numpy is imported anywhere
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_RUNS = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def import_package():
    if not (SRC / "nesthilb" / "__init__.py").is_file():
        raise BenchError(f"no nesthilb package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nesthilb
    import nesthilb.verify  # not imported by the package itself

    return nesthilb


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports nesthilb and runs
    the warm-up solve."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import nesthilb, workloads; "
            "workloads.warm_up(nesthilb)" % (str(SRC), str(HERE)))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(nh, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "commit": commit(), "seed": seed,
        "mpq": f"{nh.linalg.mpq.__module__}.{nh.linalg.mpq.__name__}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
    }


def _iteration(fn, nh, seed, tracer):
    t0 = time.perf_counter()
    ops, detail = fn(nh, seed, tracer, WORKDIR)
    return time.perf_counter() - t0, ops, detail


def run_untraced(fn, nh, seed: int, seconds: float, spec: dict):
    setup_s = measure_setup()
    workloads.warm_up(nh)
    times, ops, details = [], [], []
    count = 1
    while len(times) < count:
        t, o, d = _iteration(fn, nh, seed, workloads.NullTracer())
        times.append(t)
        ops += o
        details.append(d)
        # the whole number of iterations whose total is closest to --seconds
        count = max(1, round(seconds / times[0]))
    values = {"wall_s": statistics.median(times), "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb()}
    detail = {k: statistics.median([d[k] for d in details if k in d])
              for k in set().union(*details)}
    detail["iteration_s"] = times
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return ops, metrics, detail


def run_traced(fn, nh, seed: int, spec: dict):
    # the traced iteration runs first, so that the RSS high-water mark can
    # still rise inside its spans; the untraced one gives the overhead
    workloads.warm_up(nh)
    tracer = spans.Tracer()
    tracer.install(nh)
    try:
        t_traced, traced_ops, detail = _iteration(fn, nh, seed, tracer)
    finally:
        tracer.uninstall()
    t_plain, ops, _ = _iteration(fn, nh, seed, workloads.NullTracer())
    values = tracer.summary()
    values["trace_overhead_frac"] = t_traced / t_plain - 1.0
    cells = tracer.op_durations("strata.cell")
    if cells and "strata.sweep_wall_s" in detail:
        values["strata.worker_busy_frac"] = sum(cells) / (
            workloads.SWEEP_THREADS * detail["strata.sweep_wall_s"])
    detail.update(values)
    detail["untraced_s"], detail["traced_s"] = t_plain, t_traced
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return ops + traced_ops, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=WORKDIR / "results.jsonl",
                    help="result file the run record is appended to")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                    help="compare two result files instead of running")
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            import compare

            return compare.main(*args.compare, spec)
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        nh = import_package()
    except (BenchError, ImportError, json.JSONDecodeError) as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    fn = workloads.WORKLOADS[args.workload]
    if args.trace:
        ops, metrics, detail = run_traced(fn, nh, args.seed, spec)
    else:
        ops, metrics, detail = run_untraced(fn, nh, args.seed, args.seconds, spec)
    failed = [op for op in ops if not op.ok]
    detail["failed_frac"] = len(failed) / len(ops)
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment(nh, args.seed),
              "failures": [f"{op.name}: {op.detail}" for op in failed],
              "detail": detail, **result}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops, {len(failed)} failed")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    for name, value in sorted(detail.items()):
        print(f"  {name} = {value}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
