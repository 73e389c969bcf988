"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads corpus-toy --seeds 1-10 [--trace 0] [--out .bench_work/set1.json]

For every workload and metric it prints the median and the quartiles of
the runs (``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) as a
share of the median, and the metric's bound from ``BENCHMARK.json``.  Runs
are sequential fresh processes, each as the benchmark command is run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    windows = next((json.loads(l[len("windows "):]) for l in lines if l.startswith("windows ")), {})
    windows["host.calib_ms"] = next((float(l.split("host.calib_ms ")[1].split(",")[0]) for l in lines
                                     if "host.calib_ms " in l), None)
    return json.loads(lines[-1]), windows


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="train-default,corpus-toy,predict-default")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the runs and their summary as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            result, windows = run_once(bench, workload, seed, args.trace)
            runs.append({"seed": seed, "result": result, "windows": windows})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
        names = list(runs[0]["result"]["metrics"])
        summary = {n: summarize([r["result"]["metrics"][n]["value"] for r in runs]) for n in names}
        report[workload] = {"runs": runs, "summary": summary}
        print(f"\n{workload} ({len(runs)} runs, seeds {args.seeds}; failed share "
              f"{sorted({r['result']['failed'] / r['result']['attempted'] for r in runs})})")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for n in names:
            s = summary[n]
            bound = bounds.get(n)
            flag = "" if bound is None or n == "setup_s" or s["spread"] <= bound else " **over**"
            print(f"| {n} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f}{flag} | "
                  f"{'' if bound is None else bound} |")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
