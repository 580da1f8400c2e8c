#!/usr/bin/env python3
"""Repeat each workload with different seeds and report run-to-run spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--out results.json]

Run from the root of a checkout. Reads BENCHMARK.json for the command, the
run length, the workloads and the end-to-end bounds; runs the command once
per workload and seed (seeds first-seed .. first-seed+runs-1); and prints,
for each end-to-end metric, the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)), the spread (q3 - q1) / median
and the metric's bound. A spread above a third of its bound is marked.
setup_s is held to a median test only, so its spread is shown but not
marked. Also prints the share of failed operations per run. Exits 1 when a
run fails or prints no result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="", help="also write every result here")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    all_results = {}
    for name in names:
        results = []
        for i in range(args.runs):
            r = run_once(bench, name, args.first_seed + i)
            results.append(r)
            print(f"  {name} seed {args.first_seed + i}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)
        all_results[name] = results
        print(f"\n{name}  ({args.runs} runs, {bench['run_seconds']} s each)")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                mark = "  > bound/3"
            print(f"  {m['name']:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {m['bound']:6.2f}{mark}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"  failed share per run: {shares}  all correct: {correct}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(all_results, f, indent=1)


if __name__ == "__main__":
    main()
