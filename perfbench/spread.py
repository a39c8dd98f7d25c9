#!/usr/bin/env python3
"""Run-to-run spread of the perfbench end-to-end metrics.

Runs one workload once per seed and prints, for every metric, the median
of the per-run values and the spread (Q3 - Q1) / median, with Q1 and Q3
from statistics.quantiles(values, n=4):

    python3 perfbench/spread.py --workload fleet_small_cells --seeds 1-10

A metric whose spread exceeds its BENCHMARK.json bound is marked. Use it
before changing a bound, and to tell a real change from noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("%-40s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = " > bound/3" if bound and spread > bound / 3 else ""
        print("%-40s %14.6g %8.4f %6s%s" % (name, med, spread,
                                            bound if bound else "-", flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
