#!/usr/bin/env python3
"""Compares two sets of perfbench runs, e.g. a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--trace 0|1]

Each directory holds the result documents run.py writes to
<build dir>/results/ (<workload>-seed<N>-trace<T>.json); copy that
directory aside after running each side. Runs pair up by workload and
seed. Each metric's direction (lower or higher is better) comes from the
documents, its bound from BENCHMARK.json. For every metric of every workload the script prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither side) and the parent's own interquartile spread as a share of its
median. The verdict follows the rule for small, noisy hosts:

  gain        the change won at least 9 in 10 pairs and the medians differ
              by more than the parent's interquartile spread;
  regression  the same, in the worse direction;
  worse>bound the change's median is worse than the parent's by more than
              the bound BENCHMARK.json fixes for that metric;
  unresolved  the parent's spread is wider than the bound, so "no change"
              cannot be claimed;
  same        none of the above.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory, trace):
    runs = {}
    pattern = os.path.join(directory, "*-seed*-trace%d.json" % trace)
    for path in glob.glob(pattern):
        with open(path) as f:
            d = json.load(f)
        runs[(d["workload"], d["seed"])] = d
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = load(args.parent, args.trace), load(args.change, args.trace)
    pairs = sorted(set(a) & set(b))
    if not pairs:
        sys.exit("no runs pair up (same workload and seed on both sides)")

    print("%-13s %-30s %-9s %-29s %-29s %6s %6s %7s  %s" % (
        "workload", "metric", "unit", "parent q1/med/q3",
        "change q1/med/q3", "won", "n", "p.iqr", "verdict"))
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        names = sorted(set.intersection(
            *[set(a[k]["metrics"]) & set(b[k]["metrics"]) for k in keys]))
        for name in names:
            unit = a[keys[0]]["metrics"][name]["unit"]
            higher = a[keys[0]]["metrics"][name]["better"] == "higher"
            va = [a[k]["metrics"][name]["value"] for k in keys]
            vb = [b[k]["metrics"][name]["value"] for k in keys]
            sign = 1 if higher else -1
            won = sum(1 for x, y in zip(va, vb) if sign * (y - x) > 0)
            decided = sum(1 for x, y in zip(va, vb) if x != y)
            qa, qb = quartiles(va), quartiles(vb)
            spread = qa[2] - qa[0]
            rel = spread / qa[1] if qa[1] else 0.0
            share = won / len(keys)
            verdict = "same"
            diff = sign * (qb[1] - qa[1])
            if decided and share >= 0.9 and diff > spread:
                verdict = "gain"
            elif decided and won <= 0.1 * len(keys) and -diff > spread:
                verdict = "regression"
            bound = bounds.get(name)
            if bound is not None and qa[1]:
                if -diff / abs(qa[1]) > bound:
                    verdict = "worse>bound"
                elif rel > bound and verdict == "same":
                    verdict = "unresolved"
            print("%-13s %-30s %-9s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g "
                  "%5.0f%% %6d %6.1f%%  %s" % (
                      workload, name, unit, qa[0], qa[1], qa[2], qb[0],
                      qb[1], qb[2], 100 * share, len(keys), 100 * rel,
                      verdict))


if __name__ == "__main__":
    main()
