"""Repeatability check: run the benchmark N times per workload, with
seeds 1 to N, and print each end-to-end metric's median, quartiles and
spread against its bound in ``BENCHMARK.json``.

    python3 -m benchmarks.e2e.repeat --runs 10 [--workload NAME ...]
        [--save runs.json] [--baseline runs.json]

The spread is the distance between the first and third quartile as a
share of the median.  The tool exits 1 if any run fails its checks or a
spread exceeds its metric's bound.  With ``--baseline`` (the values an
earlier ``--save`` wrote) it also exits 1 if a median is worse than the
saved one by more than the bound, or if the delta size of any seed is
not exactly the saved one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Metrics fixed for a given seed: compared seed by seed, exactly.
EXACT = ("delta_bytes_per_xml_byte",)


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed)]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def worse_by(entry: dict, value: float, baseline: float) -> float:
    """How much worse ``value`` is than ``baseline``, as a share of it."""
    change = (value - baseline) / baseline
    return change if entry["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--save", help="write every run's values here as JSON")
    parser.add_argument("--baseline", help="values saved by an earlier --save")
    args = parser.parse_args(argv)

    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    saved: dict = {}
    status = 0
    for workload in workloads:
        results = [run_once(workload, seed) for seed in range(1, args.runs + 1)]
        failed = [r for r in results if not r["correct"] or r["failed"]]
        print(f"\n{workload}: {args.runs} runs, {len(failed)} failed")
        if failed:
            status = 1
        print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        saved[workload] = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            # One value per seed, None where the run printed no result.
            per_seed = [r["metrics"].get(name, {}).get("value") for r in results]
            saved[workload][name] = per_seed
            values = [v for v in per_seed if v is not None]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > entry["bound"]:
                flag = "  SPREAD"
                status = 1
            previous = baseline.get(workload, {}).get(name)
            if previous:
                change = worse_by(
                    entry, median,
                    statistics.median(v for v in previous if v is not None))
                if change > entry["bound"]:
                    flag += f"  WORSE {change:+.1%}"
                    status = 1
                if name in EXACT and previous != per_seed:
                    flag += "  CHANGED"
                    status = 1
            print(f"  {name:<28}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.1%}{entry['bound']:>8.0%}{flag}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(saved, handle, indent=2)
    return status


if __name__ == "__main__":
    sys.exit(main())
