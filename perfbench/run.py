"""Benchmark command for vqemb.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh worker processes with
``PYTHONPATH=src`` and the machine's default BLAS threading: a few that only
set up (interpreter, ``import vqemb``, inputs) to time set-up, then one that
runs whole rounds of the workload for up to S seconds.  The outputs of
every round are checked (checks.py).  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record, with the machine details, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

SETUP_PROBES = 4
DEADLINE_S = 170.0
STATE_DIR = Path(".perfbench")
REQUIRED = (
    "src/vqemb/__init__.py",
    "configs/chain5_deparam.yaml",
    "configs/h2_vqe_sampled.yaml",
    "fixtures/chain5.ham",
    "fixtures/h10.fcidump",
    "fixtures/h10.json",
    "fixtures/h2.json",
)
WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(RuntimeError):
    pass


def start_worker(argv: list, scratch: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return (set-up seconds, its record)."""
    record_path = scratch / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(WORKER), *argv, "--scratch", str(scratch), "--record", str(record_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    record = json.loads(record_path.read_text())
    return record["ready"] - spawned, record


def per_layer_metrics(rounds: list) -> tuple[dict, bool]:
    """Counts from the first round, seconds as the median over rounds."""
    metrics, stable = {}, True
    for name, unit in tracer.metric_units().items():
        values = [r[name] for r in rounds]
        if unit == "s":
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        else:
            stable &= len(set(values)) == 1
            metrics[name] = {"value": values[0], "unit": unit}
    return metrics, stable


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = [f"--workload={args.workload}", f"--seed={args.seed}"]
    STATE_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=STATE_DIR))
    try:
        setups = []
        for i in range(SETUP_PROBES):
            setup, _ = start_worker([*base, "--setup-only"], scratch / f"probe{i}", deadline)
            setups.append(setup)
        setup, record = start_worker(
            [*base, f"--seconds={args.seconds}", f"--trace={args.trace}"], scratch / "main", deadline
        )
        setups.append(setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problem = None
    if record["outputs"] is None:
        problem = "no round completed without a failed operation"
    elif not record["outputs_stable"]:
        problem = "outputs differ between rounds of the same inputs"
    else:
        try:
            checks.check_workload(args.workload, record, Path.cwd())
        except checks.CheckError as exc:
            problem = str(exc)

    if args.trace:
        metrics, counts_stable = per_layer_metrics(record["per_layer"])
        if not counts_stable:
            problem = problem or "per-layer counts differ between rounds"
    else:
        metrics = {
            "wall_s": {"value": statistics.median(record["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": record["env"],
        "setups": setups,
        "rounds": record["rounds"],
        "op_times": record["op_times"],
        "check": problem or "ok",
        "correct": problem is None,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not Path(p).is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    env = result["env"]
    print(
        f"perfbench {args.workload}: rounds={len(result['rounds'])} check={result['check']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas_threads={env['blas_threads']}"
    )
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
