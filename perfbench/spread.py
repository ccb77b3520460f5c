#!/usr/bin/env python3
"""Run one workload N times and print the spread of its metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workload table1_suite -n 10 \
        [--first-seed 1]

Run i uses seed first-seed + i, BENCHMARK.json's run_seconds and
--trace 0. For each end-to-end metric the script prints the
median, the first and third quartiles (statistics.quantiles, n=4) and
the quartile distance as a share of the median, next to the metric's
bound in BENCHMARK.json. It also prints each run's share of failed
operations. README.md records how the bounds were set from these
figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    shares = []
    for i in range(args.n):
        seed = args.first_seed + i
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if done.returncode != 0:
            sys.exit("spread: run with seed %d exited %d"
                     % (seed, done.returncode))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("spread: run with seed %d is not correct" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), file=sys.stderr)

    print("%-32s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-32s %12.6g %12.6g %12.6g %8.4f %6s" %
              (name, med, q1, q3, rel, "-" if bound is None else bound))
    print("failed share per run: %s" % sorted(set(shares)))


if __name__ == "__main__":
    main()
