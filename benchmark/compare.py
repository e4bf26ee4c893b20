#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    benchmark/compare.py A/ B/ [--spec BENCHMARK.json]

A and B are result directories written by `benchmark/run.sh --results DIR`
(one JSON file per run; traced and smoke runs are skipped). A is the
parent commit, B the change. Runs of one workload are paired in start
order, so run the two commits alternately (A B, B A, A B, ...), at
least ten pairs. For each workload and end-to-end metric it prints both
sides' median and quartiles, the share of pairs B won (ties count for
neither side) and a verdict:

  better      B won at least 9/10 of the pairs and the medians differ
              by more than the distance between A's quartiles
  unresolved  a side's spread (quartile distance / median) exceeds the
              metric's bound, and not every B run beats every A run
  worse       B's median is worse than A's by more than the bound
  unchanged   otherwise

Exit status: 1 when a verdict is `worse` or a run failed its output
checks, 0 otherwise.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            run = json.load(f)
        if run.get("trace") or run.get("smoke"):
            continue
        runs.setdefault(run["workload"], []).append(run)
    for workload_runs in runs.values():
        workload_runs.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, lower_is_better, bound):
    def beats(x, y):
        return x < y if lower_is_better else x > y

    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if beats(y, x))
    share = won / len(pairs) if pairs else 0.0
    spread = max((a3 - a1) / a_med if a_med else 0.0,
                 (b3 - b1) / b_med if b_med else 0.0)
    every_run_better = all(beats(y, x) for x in a for y in b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    if not lower_is_better:
        change = -change
    if share >= 0.9 and abs(b_med - a_med) > a3 - a1 and beats(b_med, a_med):
        result = "better"
    elif spread > bound and not every_run_better:
        result = "unresolved"
    elif change > bound:
        result = "worse"
    else:
        result = "unchanged"
    return (a_med, a1, a3), (b_med, b1, b3), share, len(pairs), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="result directory of the parent commit")
    parser.add_argument("b", help="result directory of the change")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    side_a, side_b = load_runs(args.a), load_runs(args.b)

    status = 0
    for side, runs in (("A", side_a), ("B", side_b)):
        for workload, workload_runs in runs.items():
            bad = [r for r in workload_runs if not r["correct"]]
            if bad:
                status = 1
                print(f"{side} {workload}: {len(bad)} run(s) failed output checks")

    header = (f"{'workload':12} {'metric':16} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'B won':>9}  verdict")
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = side_a.get(workload, []), side_b.get(workload, [])
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            (am, a1, a3), (bm, b1, b3), share, pairs, result = verdict(
                a, b, metric["better"] == "lower", metric["bound"])
            if result == "worse":
                status = 1
            print(f"{workload:12} {name:16} {am:12.6g} [{a1:9.4g}, {a3:9.4g}] "
                  f"{bm:12.6g} [{b1:9.4g}, {b3:9.4g}] {share:5.0%} of {pairs:<2} "
                  f"{result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
