#!/usr/bin/env python3
"""drsplit benchmark: one closed-loop, single-client, single-process workload.

    python3 perfbench/run.py --workload {sweep,certified_run} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``
directory and from nowhere else.  Ops run back to back until ``--seconds`` of
op time has been measured, and an untraced run holds at least the workload's
``min_ops`` ops (on ``sweep`` one pass over the grid).  Every op's output is
checked; a failed op is counted with its reason.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it are a readable report: the
environment, every metric with its unit and sample count, and each failure.

With ``--trace 1`` every input runs twice, untraced and then traced, so the
tracing overhead is measured on the same inputs.  Spans are written to
``.perfbench_out/spans_<workload>_seed<N>.npz`` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # pinned for every run, so 2-core runs measure the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
WALL_LIMIT_S = 150.0  # stop starting ops after this much wall time

END_TO_END = ("setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb")
PER_LAYER = (
    "cli.build_problem_s",
    "funclass.estimate_class_s", "funclass.estimate_class_calls",
    "prox.affine_eval_us", "prox.affine_eval_calls",
    "prox.soft_threshold_eval_us", "prox.soft_threshold_eval_calls",
    "prox.quadratic_eval_us", "prox.quadratic_eval_calls",
    "prox.objective_us", "prox.objective_calls",
    "splitting.iters", "splitting.self_us_per_iter", "splitting.trace_mb",
    "splitting.write_trace_csv_s",
    "splitting.solve_reference_s", "splitting.lyapunov_series_s",
    "certify.make_certificate_calls", "certify.make_certificate_us",
    "certify.revalidation_pass_frac",
    "sdplite.optimize_rate_p50_s", "sdplite.optimize_rate_p90_s",
    "sdplite.linalg_calls", "sdplite.linalg_matrices", "sdplite.linalg_s",
    "sdplite.self_s",
    "sdplite.eig_sym_calls", "sdplite.eig_sym_us",
    "trace_overhead_frac",
)

# The probe is a fresh interpreter: process start until the first op could run.
_PROBE = (
    "import json, sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].setup_from_args(json.loads(sys.argv[4]))\n"
)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "drsplit" / "__init__.py").is_file():
        fail(f"no drsplit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import drsplit

    if Path(drsplit.__file__).resolve().parent != SRC / "drsplit":
        fail(f"drsplit was imported from {drsplit.__file__}, not from {SRC}")


def environment() -> str:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')} "
            f"{blas.get('version')} blas_threads={blas_threads()} "
            f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()}")


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, else the pinned value."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return str(getattr(lib, sym)())
    return f"{BLAS_THREADS} (pinned, not queried)"


def measure_setup(workload) -> list:
    """Wall time of ``SETUP_PROBES`` fresh interpreters doing the set-up."""
    cmd = [sys.executable, "-c", _PROBE, str(ROOT / "perfbench"), str(SRC),
           workload.name, json.dumps(workload.setup_args())]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    return times


class Loop:
    """Closed-loop op runner with per-op timing and checking."""

    def __init__(self, workload, seconds: float, started: float):
        from workloads import traced

        self._traced = traced
        self.workload = workload
        self.seconds = seconds
        self.started = started
        self.times = []        # untraced op wall times
        self.traced_times = []
        self.failures = []     # (op index, reason)
        self.attempted = 0
        self.certified_iters = {}

    def _one(self, inp, tracer) -> float:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run(inp, None)
            else:
                with self._traced(tracer, "op"):
                    out = self.workload.run(inp, tracer)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - t0
            reasons = [f"{type(exc).__name__}: {exc}"]
            out = None
        else:
            elapsed = time.perf_counter() - t0
            reasons = self.workload.check(inp, out)
        self.failures.extend((self.attempted, r) for r in reasons)
        self.attempted += 1
        if out is not None and tracer is None:
            self.certified_iters.update(self.workload.certified_iters(inp, out))
        return elapsed

    def run(self, tracer=None):
        busy = 0.0
        i = 0
        min_ops = self.workload.min_ops if tracer is None else 1
        while (busy < self.seconds or i < min_ops) and \
                time.perf_counter() - self.started < WALL_LIMIT_S:
            inp = self.workload.prepare(i)
            dt = self._one(inp, None)
            self.times.append(dt)
            busy += dt
            if tracer is not None:
                dt = self._one(inp, tracer)
                self.traced_times.append(dt)
                busy += dt
            i += 1

    @property
    def failed_ops(self) -> int:
        return len({i for i, _ in self.failures})


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(loop: Loop, setup_times) -> dict:
    """Metric name -> (value, unit, note)."""
    n = len(loop.times)
    out = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh interpreters"),
        "op_p50_s": (statistics.median(loop.times), "s", f"n={n}"),
        "ops_per_s": (n / sum(loop.times), "1/s",
                      f"{n} ops in {sum(loop.times):.3f} s of op time"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "ru_maxrss of this process"),
        "failed_frac": (loop.failed_ops / loop.attempted, "frac",
                        f"{loop.failed_ops} of {loop.attempted} attempted ops"),
        "op_p90_s": (percentile(loop.times, 90), "s",
                     f"n={n}, {n - math.ceil(0.9 * n)} samples above"),
    }
    if loop.certified_iters:
        c = list(loop.certified_iters.values())
        out["certified_iters_geomean"] = (
            math.exp(statistics.fmean(math.log(v) for v in c)), "iters",
            f"over {len(c)} distinct Case-3 results, worst {max(c):.1f}")
    return out


def per_layer(table, counts, n_ops: int, overhead) -> dict:
    """Per-layer metrics from the traced ops' spans; name -> (value, unit, note)."""
    def mean(values, scale=1.0):
        return float(np.mean(values)) * scale if len(values) else 0.0

    def per_op(count):
        return count / n_ops if n_ops else 0.0

    out = {}
    build = table.durations("cli.build_problem")
    out["cli.build_problem_s"] = (mean(build), "s", f"mean of {len(build)} calls")
    est = table.durations("funclass.estimate_class")
    out["funclass.estimate_class_s"] = (mean(est), "s", f"mean of {len(est)} calls")
    out["funclass.estimate_class_calls"] = (per_op(len(est)), "count", "per op")
    for kind in ("affine", "soft_threshold", "quadratic"):
        d = table.durations(f"prox.{kind}.evaluate")
        out[f"prox.{kind}_eval_us"] = (mean(d, 1e6), "us", f"mean of {len(d)} calls")
        out[f"prox.{kind}_eval_calls"] = (per_op(len(d)), "count", "per op")
    d = table.durations("prox.objective")
    out["prox.objective_us"] = (mean(d, 1e6), "us", f"mean of {len(d)} calls")
    out["prox.objective_calls"] = (per_op(len(d)), "count", "per op")

    runs, iters = counts["drs_runs"], counts["iters"]
    out["splitting.iters"] = (iters / runs if runs else 0.0, "count",
                              f"mean per drs_run over {runs} runs")
    drs_self = table.self_times("splitting.drs_run")
    out["splitting.self_us_per_iter"] = (
        float(drs_self.sum()) / iters * 1e6 if iters else 0.0, "us",
        "drs_run span minus its prox spans, per iteration")
    out["splitting.trace_mb"] = (counts["trace_bytes_max"] / 2**20, "MB",
                                 "computed: iterations x 3 x n x 8 B, largest run")
    for name in ("write_trace_csv", "solve_reference", "lyapunov_series"):
        d = table.durations(f"splitting.{name}")
        out[f"splitting.{name}_s"] = (mean(d), "s", f"mean of {len(d)} calls")

    d = table.durations("certify.make_certificate")
    out["certify.make_certificate_calls"] = (per_op(len(d)), "count", "per op")
    out["certify.make_certificate_us"] = (mean(d, 1e6), "us", f"mean of {len(d)} calls")
    tried = counts["revalidations"]
    out["certify.revalidation_pass_frac"] = (
        counts["revalidations_feasible"] / tried if tried else 0.0, "frac",
        f"feasible of {tried} checks inside optimize_rate")

    rate = table.durations("sdplite.optimize_rate")
    cells = len(rate)
    out["sdplite.optimize_rate_p50_s"] = (
        float(np.median(rate)) if cells else 0.0, "s", f"n={cells} cells")
    out["sdplite.optimize_rate_p90_s"] = (
        percentile(rate, 90) if cells else 0.0, "s", f"n={cells} cells")
    linalg = table.prefixed("numpy.linalg.")
    out["sdplite.linalg_calls"] = (
        int(linalg.sum()) / cells if cells else 0.0, "count",
        "numpy.linalg calls per optimize_rate call")
    out["sdplite.linalg_matrices"] = (
        counts["linalg_matrices"] / cells if cells else 0.0, "count",
        "matrices through numpy.linalg per optimize_rate call")
    out["sdplite.linalg_s"] = (
        float(table.duration[linalg].sum()) / cells if cells else 0.0, "s",
        "numpy.linalg time per optimize_rate call")
    out["sdplite.self_s"] = (
        float(table.self_times("sdplite.optimize_rate").sum()) / cells if cells else 0.0,
        "s", "optimize_rate time outside its child spans, per call")
    d = table.durations("sdplite.eig_sym")
    out["sdplite.eig_sym_calls"] = (per_op(len(d)), "count", "per op, set-up included")
    out["sdplite.eig_sym_us"] = (mean(d, 1e6), "us", f"mean of {len(d)} calls")
    out["trace_overhead_frac"] = (overhead[0], "frac", overhead[1])
    return out


def print_metrics(title: str, metrics: dict):
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value!r:>24} {unit:6s} {note}")


def collect(workload, seconds: float, trace: bool, started: float, spans_path=None):
    """Set up, warm up and run the loop; returns (metrics, loop).

    The metrics are the end-to-end ones when untraced, the per-layer ones
    when traced.
    """
    from spans import Spans
    from workloads import traced

    tracer = Spans() if trace else None
    setup_times = [] if trace else measure_setup(workload)
    if tracer is None:
        workload.setup()
    else:
        with traced(tracer, "setup"):
            workload.setup()
    workload.warmup()

    loop = Loop(workload, seconds, started)
    loop.run(tracer)
    if tracer is None:
        return end_to_end(loop, setup_times), loop
    table = tracer.table()
    if spans_path is not None:
        table.save(spans_path)
    traced, untraced = statistics.median(loop.traced_times), statistics.median(loop.times)
    overhead = (traced / untraced - 1.0,
                f"traced op_p50_s {traced:.6g} s / untraced {untraced:.6g} s - 1, "
                f"{len(loop.times)} input pairs, {len(table.start)} spans")
    return per_layer(table, tracer.counts, len(loop.traced_times), overhead), loop


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep", "certified_run"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        fail("--seconds must be > 0")

    import_library()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {environment()}")
    spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.npz"
    metrics, loop = collect(workload, args.seconds, bool(args.trace), started,
                            spans_path)
    if args.trace:
        print_metrics("per-layer metrics (traced):", metrics)
        names = PER_LAYER
    else:
        print_metrics("end-to-end metrics (untraced):", metrics)
        names = END_TO_END
    for i, reason in loop.failures:
        print(f"FAILED op {i}: {reason}")
    print(f"checks: {loop.attempted} ops attempted, {loop.failed_ops} failed")
    result = {
        "correct": loop.failed_ops == 0,
        "attempted": loop.attempted,
        "failed": loop.failed_ops,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
