#!/usr/bin/env python3
"""Check scripts/bench_compare.py against hand-written captures.

Usage:
    tests/check_bench_compare.py BENCH_COMPARE.py CAPTURE_DIR

CAPTURE_DIR holds google-benchmark-shaped captures (tests/bench_compare):

  - baseline.json: a 1-CPU capture of BM_DeadnessAnalysis and the
    ring row;
  - clean.json: a 4-CPU capture 1.5x slower on the calibration row
    and +10% on the ring row after calibration;
  - errored_row.json: the ring row ended in SkipWithError
    (error_occurred, real_time 0.0);
  - errored_calibration.json: the calibration row ended in
    SkipWithError.

Each case runs the gate's own command line (--threshold 20
--calibrate BM_DeadnessAnalysis) and checks the exit code and the
output. Exits nonzero listing every failed expectation.
"""

import os
import subprocess
import sys


def run(script, before, after):
    proc = subprocess.run(
        [sys.executable, script, before, after,
         "--threshold", "20", "--calibrate", "BM_DeadnessAnalysis"],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    script, data = sys.argv[1], sys.argv[2]
    baseline = os.path.join(data, "baseline.json")
    failures = []

    def expect(case, cond, what, out, err):
        if not cond:
            failures.append(f"{case}: expected {what}\n"
                            f"--- stdout\n{out}--- stderr\n{err}")

    # A clean pair within the threshold passes, and the CPU-count
    # mismatch is shown but changes no verdict.
    code, out, err = run(script, baseline,
                         os.path.join(data, "clean.json"))
    expect("clean", code == 0, "exit 0", out, err)
    expect("clean", "+10.0%" in out, "the ring row at +10.0%", out, err)
    expect("clean", "num_cpus: 1 before, 4 after" in out,
           "both captures' CPU counts on stdout", out, err)
    expect("clean", "warning" in err and "1 and 4 CPUs" in err,
           "a CPU-count warning on stderr", out, err)

    # An errored row must fail, naming the row and its message,
    # not pass as a -100% speedup.
    code, out, err = run(script, baseline,
                         os.path.join(data, "errored_row.json"))
    expect("errored_row", code == 1, "exit 1", out, err)
    expect("errored_row",
           "BM_MpmcQueueThroughput/real_time" in err
           and "pthread_setaffinity_np failed" in err,
           "the errored row's name and error_message on stderr",
           out, err)
    expect("errored_row", "-100.0%" not in out,
           "no -100% row in the table", out, err)

    # An errored calibration row must fail the same way, not divide
    # by zero.
    code, out, err = run(script, baseline,
                         os.path.join(data, "errored_calibration.json"))
    expect("errored_calibration", code == 1, "exit 1", out, err)
    expect("errored_calibration",
           "BM_DeadnessAnalysis" in err
           and "sched_getaffinity failed" in err
           and "Traceback" not in err,
           "the calibration row's error, and no traceback", out, err)

    for failure in failures:
        print(failure)
    if failures:
        return 1
    print("bench_compare: clean pair passes, errored rows rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
