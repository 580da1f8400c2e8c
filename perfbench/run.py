#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds an
optimised (Release) tree of its own under .bench_build/perfbench (the core
library, dbtc, the dbtc-generated programs and the perfbench binary); later
calls rebuild only what changed. Build output goes to standard error, so the
last line of standard output is the JSON result. Logs, checkpoints
and the traced mode's spans are written under .bench_build/perfbench/work.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
