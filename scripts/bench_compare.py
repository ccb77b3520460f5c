#!/usr/bin/env python3
"""Compare two Google-Benchmark JSON captures.

Usage:
    scripts/bench_compare.py BEFORE.json AFTER.json [--threshold PCT]

Prints one row per benchmark with the before/after real_time and the
delta, then exits nonzero when any benchmark present in both captures
regressed by more than the threshold (default 10% real_time). Rows
present on only one side are reported but never fail the check (new
benchmarks appear, retired ones disappear). A row that google-benchmark
marks "error_occurred" (SkipWithError) fails the check outright: it
carries no timing (real_time 0.0), so comparing it would pass any
errored benchmark as a -100% speedup.

Both captures' context.num_cpus are printed before the table, with a
warning on stderr when they differ: a multi-thread row is comparable
across captures only when it confines its threads to one CPU.

Either input may be a raw capture (a google-benchmark JSON document
with a top-level "benchmarks" array) or a merged before/after record
as committed in BENCH_PR*.json; for the merged form the "after"
section is used, so

    scripts/bench_compare.py BENCH_PR4.json bench_after.json

compares the PR 4 state against a fresh capture.
"""

import argparse
import json
import sys


def load_capture(path):
    """Read a capture: (context, rows, errors).

    rows maps benchmark name -> {real_time, time_unit}. A capture
    taken with --benchmark_repetitions=N carries one iteration row
    per repetition; we keep the minimum. Timing noise on a shared
    machine is one-sided (scheduler steal only ever adds time), so
    best-of-N converges on the true cost and makes the comparison
    robust where a single sample or the mean flakes.

    errors maps benchmark name -> error_message for every row that
    reported error_occurred; such rows never enter rows.
    """
    with open(path) as f:
        doc = json.load(f)
    # A merged {"before", "after", "summary"} record: take "after".
    if "benchmarks" not in doc and "after" in doc:
        doc = doc["after"]
    rows = {}
    errors = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            errors[bench["name"]] = bench.get("error_message", "")
            continue
        row = rows.get(bench["name"])
        if row is None or bench["real_time"] < row["real_time"]:
            rows[bench["name"]] = {
                "real_time": bench["real_time"],
                "time_unit": bench.get("time_unit", "ns"),
            }
    return doc.get("context", {}), rows, errors


def main():
    parser = argparse.ArgumentParser(
        description="Diff two google-benchmark JSON captures.")
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument(
        "--threshold", type=float, default=10.0,
        help="fail on real_time regressions above this percentage "
             "(default: %(default)s)")
    parser.add_argument(
        "--calibrate", metavar="NAME", default=None,
        help="scale every 'after' time by NAME's before/after ratio. "
             "NAME should be a benchmark the change under test did "
             "not touch: its drift measures the machine, not the "
             "code, and dividing it out turns the absolute "
             "comparison into a relative one that survives captures "
             "taken on a slower or noisier host than the baseline.")
    args = parser.parse_args()

    ctx_b, before, err_b = load_capture(args.before)
    ctx_a, after, err_a = load_capture(args.after)

    errored = [(args.before, name, msg) for name, msg in err_b.items()]
    errored += [(args.after, name, msg) for name, msg in err_a.items()]
    if errored:
        print(f"bench_compare: {len(errored)} benchmark(s) reported "
              f"an error instead of a time:", file=sys.stderr)
        for path, name, msg in errored:
            print(f"  {name} ({path}): {msg}", file=sys.stderr)
        return 1

    if args.calibrate:
        cal_b = before.get(args.calibrate)
        cal_a = after.get(args.calibrate)
        if cal_b is None or cal_a is None:
            print(f"bench_compare: calibration benchmark "
                  f"'{args.calibrate}' missing from "
                  f"{'both' if cal_b is cal_a else 'one'} capture(s)",
                  file=sys.stderr)
            return 2
        scale = cal_b["real_time"] / cal_a["real_time"]
        print(f"calibrating on {args.calibrate}: machine speed "
              f"factor {1 / scale:.3f}x vs baseline")
        for row in after.values():
            row["real_time"] *= scale

    cpus_b = ctx_b.get("num_cpus", "?")
    cpus_a = ctx_a.get("num_cpus", "?")
    print(f"num_cpus: {cpus_b} before, {cpus_a} after")
    if cpus_b != cpus_a:
        print(f"bench_compare: warning: the captures ran on "
              f"{cpus_b} and {cpus_a} CPUs; a multi-thread row is "
              f"comparable only if it confines its threads to one "
              f"CPU", file=sys.stderr)

    width = max((len(n) for n in set(before) | set(after)), default=4)
    regressions = []
    print(f"{'benchmark':<{width}}  {'before':>12}  {'after':>12}  "
          f"{'delta':>8}")
    for name in sorted(set(before) | set(after)):
        b = before.get(name)
        a = after.get(name)
        if b is None:
            print(f"{name:<{width}}  {'-':>12}  "
                  f"{a['real_time']:>12.0f}  {'new':>8}")
            continue
        if a is None:
            print(f"{name:<{width}}  {b['real_time']:>12.0f}  "
                  f"{'-':>12}  {'gone':>8}")
            continue
        delta = ((a["real_time"] - b["real_time"]) / b["real_time"]
                 * 100.0 if b["real_time"] else 0.0)
        flag = ""
        if delta > args.threshold:
            regressions.append((name, delta))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {b['real_time']:>12.0f}  "
              f"{a['real_time']:>12.0f}  {delta:>+7.1f}%{flag}")

    if regressions:
        print(f"\nbench_compare: {len(regressions)} benchmark(s) "
              f"regressed more than {args.threshold:.1f}%:",
              file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        return 1
    print("\nbench_compare: no regressions above "
          f"{args.threshold:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
