#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Builds the perfbench binary and the two serving binaries from the
checkout's sources into .bench_build/perfbench (a no-op once built; build
output goes to stderr), runs it, checks that its result line reports
exactly the metrics BENCHMARK.json declares for the mode, and relays its
report. The last line of stdout is the result JSON; any failure exits
non-zero without printing one.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bulk", "serve", "live", "route")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Child setup: perfbench dies with this process (PR_SET_PDEATHSIG)."""
    ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
         "habit_serve", "habit_route"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    build()
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", os.path.join(BUILD, "habit"),
        "--work-dir", os.path.join(BUILD, "work-" + args.workload),
    ]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, preexec_fn=die_with_parent)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit("perfbench exited with status %d" % run.returncode)

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        sys.stderr.write(run.stdout)
        sys.exit("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
