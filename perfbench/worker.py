"""One benchmark process: set up a workload, run timed units, check them.

Started by run.py, never by hand. Prints one JSON line on stdout. The
``ready`` clock reading lets the parent measure fresh-process-to-ready time on
the shared monotonic clock.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def run_units(inst, mp, seconds: float, tracer=None) -> tuple[list[float], list[dict]]:
    """Closed loop of whole units, as many as come nearest to ``seconds``:
    another unit starts while at least half of it is expected to fit."""
    times, results = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_unit()
        t0 = time.perf_counter()
        out = inst.solve(mp)
        times.append(time.perf_counter() - t0)
        results.append(out)
        if time.perf_counter() - start + statistics.median(times) / 2 >= seconds:
            return times, results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import multiphoton as mp
    if not Path(mp.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported multiphoton from {mp.__file__}, not from {src}")
    import workloads
    inst = workloads.make(args.workload, args.seed, mp)
    inst.warm(mp)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out: dict = {"ready": ready, "provenance": {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }}
    if args.trace:
        import tracer as tracing
        plain_times, results = run_units(inst, mp, args.seconds / 2)
        tr = tracing.Tracer("multiphoton")
        tr.install()
        try:
            traced_times, traced_results = run_units(inst, mp, args.seconds / 2, tr)
        finally:
            tr.uninstall()
        results += traced_results
        solve = statistics.median(plain_times)
        traced = statistics.median(traced_times)
        metrics = tr.summary()
        metrics["trace.solve_s"] = traced
        metrics["trace.overhead_frac"] = traced / solve - 1.0
        metrics["trace.absent_targets"] = len(tr.absent)
        units = tr.metric_units()
        units.update({"trace.solve_s": "s", "trace.overhead_frac": "ratio",
                      "trace.absent_targets": "count"})
        out["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        out["absent"] = tr.absent
        out["spans"] = tr.dump()
        out["units"] = {"untraced": len(plain_times), "traced": len(traced_times)}
    else:
        times, results = run_units(inst, mp, args.seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["metrics"] = {
            "solve_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }
        out["units"] = {"untraced": len(times)}
        out["unit_times_s"] = times

    # references are computed after timing and after the memory reading
    ref = inst.reference(mp)
    failed, problems = 0, []
    for res in results:
        bad, found = inst.check(res, ref)
        failed += bad
        problems += [p for p in found if p not in problems]
    out.update({
        "attempted": len(inst.keys) * len(results),
        "failed": failed,
        "problems": problems[:10],
        "reference": inst.provenance(),
        "probabilities_per_unit": len(inst.keys),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
