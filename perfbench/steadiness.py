"""Steadiness command: repeat benchmark runs and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --seconds 25
    python3 perfbench/steadiness.py --workloads chaos-pool --runs 5 --first-seed 100

Runs ``perfbench/run.py`` once per seed (``--first-seed``, +1, ...) for each
workload, one run at a time, and prints per metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median``, the minimum, the maximum and max/min, plus the
failed share and wall time of every run.  Rows named ``raw.*`` are the
wall-clock timings before calibration (see ``calibration.py``).  The bounds in ``BENCHMARK.json``
are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("table1", "device-campaign", "chaos-pool")


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The summary line before the result carries the raw (unnormalised)
    # timings; they are summarised beside the metrics.
    for name, value in json.loads(lines[-2])["raw"].items():
        result["metrics"][f"raw.{name}"] = {"value": value, "unit": "raw"}
    return result, time.perf_counter() - started


def summarise(results: list[dict]) -> list[tuple]:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else 0.0
        low, high = min(values), max(values)
        rows.append((name, unit, median, q1, q3, spread, low, high,
                     high / low if low else float("nan")))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} in {wall:.1f} s",
                  flush=True)
        print(f"\n{workload}: {len(results)} runs")
        print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'min':>12} {'max':>12} {'max/min':>7}")
        for name, unit, median, q1, q3, spread, low, high, ratio in summarise(results):
            print(f"{name:34} {unit:6} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {low:12.5g} {high:12.5g} {ratio:7.3f}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
