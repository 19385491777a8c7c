"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads texas-full,analyze-probe --tag a

Runs ``perfbench/run.py`` once for each of the seeds 1-10, one process at
a time, for the ``run_seconds`` that ``BENCHMARK.json`` sets.  For each end-to-end
metric it prints the median, the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), and the bound that three
times that spread would need.  The bounds in ``BENCHMARK.json`` were set
from these figures.  Raw results go to ``.perfbench-work/spread-<tag>.json``.
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
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="texas-full,sbm1k-given,analyze-probe")
    parser.add_argument("--tag", default="last")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    results: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(record)
            print(f"{workload} seed {seed}: attempted {record['attempted']} "
                  f"failed {record['failed']} correct {record['correct']}", flush=True)
        results[workload] = runs
        print(f"\n{workload}: {'metric':24s} {'median':>12s} {'spread':>8s} {'3x':>8s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            print(f"{workload}: {name:24s} {statistics.median(values):12.6g} "
                  f"{s:8.4f} {3 * s:8.4f}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed shares {sorted(shares)}\n", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench-work", f"spread-{args.tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
