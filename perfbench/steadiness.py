#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs one workload once per seed and
reports, for each end-to-end metric, the median, the quartile spread as a
share of the median, and the metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --workload churn --seeds 1-10

A spread above a third of its bound is flagged. setup_s is reported but,
like the acceptance rule, not held to its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out.extend(range(int(first), int(last or first) + 1))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"),
                        help="e.g. 1-10 or 1,1,1 (repeats show run-to-run noise)")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {}
    for seed in args.seeds:
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", args.trace]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            sys.exit("seed %d: exit code %d" % (seed, done.returncode))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect or failed operations: %s" % (seed, result))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done" % seed, file=sys.stderr)
    if args.trace != "0":
        for name, series in values.items():
            print("%-40s %s" % (name, " ".join("%.4g" % v for v in series)))
        return
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= metric["bound"] / 3 or metric["name"] == "setup_s" else "  <-- wide"
        print("%-14s median %-12.6g spread %.4f bound %.2f%s"
              % (metric["name"], med, spread, metric["bound"], flag))
        print("    " + " ".join("%.4g" % v for v in series))


if __name__ == "__main__":
    main()
