"""One benchmark process: import vqemb, prepare a workload, run it, report.

Started by run.py with ``PYTHONPATH=src`` from the repository root.  The
process records when it is ready (interpreter up, vqemb imported, inputs
written), then runs whole rounds of the workload's operations for up to
``--seconds`` and writes a JSON record to ``--record``.  It starts another
round only while the mean round so far would still end within
``--seconds``, and it always runs at least one.  With
``--setup-only`` it stops once ready.  With ``--trace 1`` the public layer
functions are wrapped for the timed rounds (see tracer.py).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import vqemb
import vqemb.cli

import workloads


def blas_threads() -> dict:
    """OpenBLAS thread count of each BLAS library loaded into this process."""
    out = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({l.split()[-1] for l in maps if "openblas" in l and l.rstrip().endswith(".so")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[Path(path).name] = getter()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "vqemb": vqemb.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def run_op(op) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return vqemb.cli.main(list(op.argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.prepare(args.workload, Path(args.scratch), args.seed)
    record = {"ready": time.monotonic()}
    if args.setup_only:
        Path(args.record).write_text(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rounds, per_layer, op_times = [], [], {op.label: [] for op in ops}
    attempted = failed = 0
    outputs, stable = None, True
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        round_failed = 0
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            rc = run_op(op)
            op_times[op.label].append(time.perf_counter() - t0)
            attempted += 1
            round_failed += rc != 0
        rounds.append(time.perf_counter() - t_round)
        failed += round_failed
        if tracer:
            per_layer.append(tracer.snapshot())
        if not round_failed:
            texts = workloads.collect(ops)
            if outputs is None:
                outputs = texts
            stable &= texts == outputs
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    if tracer:
        tracer.uninstall()

    record.update(
        rounds=rounds,
        op_times=op_times,
        attempted=attempted,
        failed=failed,
        outputs=outputs,
        outputs_stable=stable,
        per_layer=per_layer,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    if "sampled" in workloads.WORKLOADS[args.workload]:
        record["problem"] = workloads.describe_sampled_problem()
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
