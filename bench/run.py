"""Benchmark entry point.

    python3 bench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``).  Lines before it describe the run for a reader.  The run's
files live in ``.bench_work/`` and are removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys

# One BLAS thread, set before NumPy loads, so that runs on a small shared
# host do not contend with themselves; the interpreted kernels are what
# runs where numba is absent, so they are measured everywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["FNPRED_NO_NUMBA"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="train-default, corpus-toy or predict-default")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fnpred", "__init__.py")):
        print(f"error: no program source at {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        run, metrics = workloads.run_workload(args.workload, args.seed, args.seconds, work_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print(f"# {args.workload} seed {args.seed}: {platform.python_version()}, NumPy {np.__version__}, "
          f"{os.cpu_count()} cores, host.calib_ms {run.calib_ms:.2f}, setup_s runs "
          + " ".join(f"{t:.3f}" for t in run.setup_times))
    print("windows " + json.dumps({k: {"rounds": len(w.rates), "work": w.work, "seconds": round(w.seconds, 4)}
                                   for k, w in run.windows.items()}))
    for failure in run.failures:
        print(f"failed: {failure}")
    for error in run.errors:
        print(f"check failed: {error}")
    if tracer is not None:
        window_s = sum(w.seconds for w in run.windows.values())
        print("end-to-end under tracing " + json.dumps({k: v for k, (v, _) in metrics.items()}))
        print(f"{'span':28} {'calls':>8} {'total_s':>9} {'self_s':>9}")
        for name, (calls, total, own) in sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2]):
            print(f"{name:28} {calls:8d} {total:9.3f} {own:9.3f}")
        metrics, missing = tracing.layer_metrics(tracer, run.counts, run.calib_ms, window_s)
        if tracer.missing:
            print("missing targets " + " ".join(tracer.missing))
        if missing:
            print("missing " + " ".join(missing))
        metrics = {k: (0.0 if v is None else v, unit) for k, (v, unit) in metrics.items()}
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
