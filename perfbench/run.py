#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay-srpt --seed 1 --seconds 20 --trace 0

--workload all runs the four workloads one after another and prints each
one's output; it exits non-zero unless every one is correct.

The driver and flowsched_serve are built in Release into
.bench_build/perfbench (the first run configures and builds; later runs
only check that the build is up to date). Build output goes to stderr.
The driver's report goes to stdout; its last line is one JSON object with
the keys correct, attempted, failed and metrics. A traced run (--trace 1)
also writes its spans to .bench_build/perfbench/spans-<workload>.csv.

Exits non-zero, without printing a result, when the repository sources are
missing, the build fails, or the driver fails or runs too long.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 170
# The driver's workloads (driver.cc, kWorkloads), for --workload all.
WORKLOADS = ("replay-maxweight", "replay-srpt", "serve-srpt", "offline-art")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at the repository root; the benchmark builds the "
                 "program from its sources" % needed)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD, "--target",
                        "perfbench_driver", "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def run_driver(workload, args):
    """Runs one workload; returns its stdout and its result line."""
    command = [os.path.join(BUILD, "perfbench_driver"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(BUILD, "spans-%s.csv" % workload)]
    # Its own process group, so a timeout also stops the daemon it started.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        output, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        fail("driver ran longer than %d s" % DRIVER_TIMEOUT_S)
    if driver.returncode != 0:
        sys.stderr.write(output)
        fail("driver exited with status %d" % driver.returncode)
    try:
        result = json.loads(output.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed no result line")
    return output, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    build()
    print("perfbench: build ready in %.1f s" % (time.monotonic() - start),
          file=sys.stderr)
    if args.workload != "all":
        sys.stdout.write(run_driver(args.workload, args)[0])
        return
    correct = True
    for workload in WORKLOADS:
        output, result = run_driver(workload, args)
        sys.stdout.write(output)
        sys.stdout.flush()
        correct = correct and result["correct"]
    if not correct:
        fail("some workload failed its output checks")


if __name__ == "__main__":
    main()
