#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and quartile spread (the distance between the first and third quartiles
as a share of the median), the figure the bounds in BENCHMARK.json are
judged against.

Usage, from the repository root:

    python3 qlbench/spread.py --workloads analytic sequence --seeds 1 2 3 4 5
    python3 qlbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --output qlbench/.out/spread.json

Each run measures for ``run_seconds`` from BENCHMARK.json.  Runs go one at
a time.  ``--output`` writes every run's metrics and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": time.perf_counter() - start, "result": result,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES),
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--output")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs, summary, ok = [], {}, True
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        for seed in args.seeds:
            run = run_once(workload, seed, seconds)
            runs.append(run)
            result = run["result"]
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {run['exit']} {run['stderr'][-300:]}", flush=True)
                continue
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {run['wall_s']:.1f}s wall, failed {result['failed']}/"
                  f"{result['attempted']}, " + ", ".join(
                      f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, values in per_metric.items():
            if len(values) < 2:
                continue
            median, q1, q3, share = spread(values)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share,
                                       "n": len(values)}
            print(f"  {workload:13s} {name:14s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {share:.2%}", flush=True)
    if args.output:
        Path(args.output).write_text(json.dumps({"seconds": seconds, "summary": summary, "runs": runs},
                                                indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
