"""Benchmark of the multiphoton probability engines.

    python3 perfbench/run.py --workload sweep_flat6 --seed 1 --seconds 20 --trace 0

Run from the repository root. Every workload runs in fresh worker processes
with single-threaded BLAS: several set-up-only processes give ``setup_s``, and
one more runs timed units for ``--seconds`` and checks every probability
against a reference computed outside the timed region. ``--trace 1`` reports
the per-layer metrics of perfbench/tracer.py instead of the end-to-end ones.
The last line of stdout is one JSON object; the full record, spans included,
goes to perfbench/out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BUILDERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # fresh processes timed to ready; the median is setup_s
DEADLINE_S = 170.0         # whole run, all processes included
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker to completion; its setup time is measured from just
    before the process is created to the ready reading it reports."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = {**os.environ, **BLAS_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the run deadline")
    if proc.returncode != 0 or not stdout.strip():
        raise WorkerError(f"worker exited with code {proc.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "multiphoton" / "__init__.py").is_file():
        print(f"perfbench: no multiphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        record = spawn(args, deadline)
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = record["metrics"]
    if not args.trace:
        setups.append(record["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = record["attempted"], record["failed"]
    correct = failed == 0 and not record["problems"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(record["provenance"]))
    for label, route in record["reference"].items():
        print(f"reference for {label}: {route}")
    print(f"units timed: {json.dumps(record['units'])}; "
          f"{record['probabilities_per_unit']} probabilities per unit")
    if not args.trace:
        print(f"setup samples: {len(setups)}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    for absent in record.get("absent", []):
        print(f"trace target absent: {absent}")
    for name, m in {**metrics, "fail_frac": {"value": failed / attempted, "unit": "ratio"}}.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct)
    if not args.trace:
        record["setup_samples_s"] = setups
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
