"""Benchmark for the eblup package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory.  The last line on stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads, metrics and figures.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

# one compute thread: set before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EBLUP_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import cho_factor, cho_solve  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

REF_REPS = 20
REF_LOOP = 25_000


class RefKernel:
    """Fixed reference work timed right after every operation.

    A 100 x 100 Cholesky factorization and solve, REF_REPS times, then a
    pure-Python loop: the same mix of LAPACK and interpreter work as the
    program.  Its time divides each op's time in op_cost_ref, which
    cancels much of the host's drift.  It never counts as program time.
    """

    def __init__(self):
        g = np.random.Generator(np.random.PCG64(12345))
        a = g.standard_normal((100, 100))
        self.a = a @ a.T + 100.0 * np.eye(100)
        self.b = g.standard_normal(100)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(REF_REPS):
            cho_solve(cho_factor(self.a, lower=True), self.b)
        acc = 0.0
        for i in range(REF_LOOP):
            acc += (i % 7) * 0.5
        return time.perf_counter() - t0


class Meter:
    """Times program work, runs the reference kernel and counts failures."""

    def __init__(self, ref: RefKernel, tracer=None):
        self.ref = ref
        self.tracer = tracer
        self.traced = False
        self.program_s = 0.0
        self.op_s: list[float] = []
        self.op_ref: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.fit_notes = Counter()
        self._errors = 0

    def _timed(self, fn):
        tracer = self.tracer if self.traced else None
        if tracer:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # noqa: BLE001 - a failing call is a failed op, not a crash
            out = None
            self._errors += 1
            if self._errors <= 3:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.recording = False
        self.program_s += dt
        return out, dt

    def fit(self, fn):
        """A fit: program time, not an op. None when it raised."""
        fit = self._timed(fn)[0]
        if fit is not None:
            self.fit_notes["fits"] += 1
            self.fit_notes["not_converged"] += not fit.converged
            self.fit_notes["boundary"] += bool(fit.boundary_hit)
        return fit

    def op(self, fn, check, n: int = 1, valid=True) -> None:
        """n ops in one timed call; check(out) returns how many of them failed."""
        self.attempted += n
        if not valid:
            self.failed += n
            return
        out, dt = self._timed(fn)
        ref = self.ref()
        self.op_s.append(dt / n)
        self.op_ref.append(dt / ref / n)
        if out is None:
            self.failed += n
            return
        self.failed += check(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "eblup" / "__init__.py").is_file():
        print(f"error: no eblup sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eblup

    if Path(eblup.__file__).resolve().parent != (SRC / "eblup").resolve():
        print(f"error: imported eblup from {eblup.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](eblup, args.seed)
    ref = RefKernel()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(eblup)
        tracer.install()
        tracer.recording = True
    wl.setup()
    ref()
    if tracer:
        tracer.recording = False
        tracer.uninstall()
    setup_s = time.perf_counter() - _T0

    meter = Meter(ref, tracer)
    t_end = time.perf_counter() + args.seconds
    # traced runs alternate traced and untraced rounds, in pairs; counts come
    # from the first count_rounds traced rounds, so at least that many run
    ops_by_round = {}
    op_s_by_mode = {True: [], False: []}
    k = 0
    while time.perf_counter() < t_end or (
        tracer and (len(ops_by_round) < wl.count_rounds or k % 2 == 1)
    ):
        meter.traced = bool(tracer) and k % 2 == 0
        if meter.traced:
            tracer.round = k
            tracer.install()
        n_ops, n_times = meter.attempted, len(meter.op_s)
        wl.round(k, meter)
        if meter.traced:
            tracer.uninstall()
            ops_by_round[k] = meter.attempted - n_ops
        op_s_by_mode[meter.traced] += meter.op_s[n_times:]
        k += 1
    if hasattr(wl, "finish") and not wl.finish():
        meter.failed = meter.attempted

    if tracer:
        overhead = statistics.median(op_s_by_mode[True]) / statistics.median(op_s_by_mode[False])
        count_rounds = set(sorted(ops_by_round)[: wl.count_rounds])
        metrics = tracing.layer_metrics(tracer, ops_by_round, count_rounds, overhead)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": (meter.attempted - meter.failed) / meter.program_s, "unit": "op/s"},
            "op_ms_p50": {"value": statistics.median(meter.op_s) * 1e3, "unit": "ms"},
            "op_cost_ref": {"value": statistics.median(meter.op_ref), "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": meter.attempted > 0 and meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": metrics,
    }
    notes = meter.fit_notes
    if notes["fits"]:
        # not failed ops (README.md, "Checks"), but shown on every run
        print(
            f"fits: {notes['fits']}, converged=False: {notes['not_converged']}, "
            f"at a boundary: {notes['boundary']}, short of the root there: {notes['short_of_root']}",
            file=sys.stderr,
        )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
