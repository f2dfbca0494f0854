#!/usr/bin/env python3
"""Summarise or compare sets of untraced benchmark results.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A results directory holds the ``*-trace0.json`` files ``run.py``
writes under ``.perfbench-out/results/`` (copy it aside between the
sets).  With one directory, prints per workload and metric the median,
the quartiles and the spread (interquartile distance over the median)
against the metric's bound in ``BENCHMARK.json``.  With two, prints
each metric's median change in the worse direction against its bound:
``regressed`` beyond it, ``unresolved`` where a side's own spread
exceeds the bound, else ``ok``.

Results from hosts whose fingerprints differ are not compared: the
command names the differing fields and exits 3.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import host

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """``{workload: [result, ...]}`` of the untraced results."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            result = json.load(fh)
        groups.setdefault(result["workload"], []).append(result)
    return groups


def summary(results, name):
    values = [r["metrics"][name]["value"] for r in results]
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = [load(d) for d in argv]
    fingerprints = [r["fingerprint"] for s in sets for rs in s.values()
                    for r in rs]
    for fp in fingerprints[1:]:
        reasons = host.comparable(fingerprints[0], fp)
        if reasons:
            print("refusing to compare: fingerprints differ: "
                  + "; ".join(reasons), file=sys.stderr)
            return 3
    for workload in sorted(sets[0]):
        runs = [s.get(workload, []) for s in sets]
        print(f"{workload} ({' vs '.join(str(len(r)) for r in runs)} runs)")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary(r, name) for r in runs if r]
            line = "  ".join(f"median {s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] "
                             f"spread {s[3]:.3f}" for s in stats)
            if len(stats) == 1:
                flag = "ok" if stats[0][3] <= bound / 3 else (
                    "within bound" if stats[0][3] <= bound else "TOO WIDE")
            else:
                (base, *_, sb), (new, *_, sn) = stats
                worse = (new - base) / base
                if m["better"] == "higher":
                    worse = -worse
                flag = ("unresolved" if max(sb, sn) > bound
                        else "regressed" if worse > bound else "ok")
                line += f"  worse by {worse:+.3f}"
            print(f"  {name:20s} bound {bound:.2f}  {line}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
