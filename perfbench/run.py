#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1_suite --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles the
simulator's src/ tree) into the directory named by CARGO_TARGET_DIR,
or .bench_build when it is unset; later calls only check the build
is current. The workload runs in one serbench process. Its last line
of standard output, one JSON object, is checked against
BENCHMARK.json (the metric names of the mode asked for) and printed
as this script's last line. Exits non-zero without a result when the
sources are missing, the build fails, the run fails or times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end well inside the three minutes a caller allows.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "serbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (cmd[:2], err))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    return os.path.join(out, "serbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out" % args.workload)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("serbench exited %d" % proc.returncode)

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("serbench printed no result")
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        fail("metrics %s differ from BENCHMARK.json's %s"
             % (sorted(result["metrics"]), sorted(want)))
    print(lines[-1])


if __name__ == "__main__":
    main()
