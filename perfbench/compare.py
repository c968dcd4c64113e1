#!/usr/bin/env python3
"""Compare two sets of benchmark runs: the parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the runs recorded with `run.py --record FILE`, one JSON
line per run. Runs are paired by workload in recording order, so record
the pairs alternately (parent first, then change first, ...).

For every workload and end-to-end metric (runs with trace 0) it prints
both sides' median and quartiles, the fraction of pairs the change won,
and a verdict:

  improved     the change won at least 9/10 of all pairs (ties count for
               neither) and the medians differ by more than the parent's
               own spread (its interquartile distance)
  no worse     the change's median is within the metric's bound of the
               parent's, and the parent's spread is within the bound
  worse        the change's median is worse by more than the bound
  unresolved   the parent's spread is wider than the bound, unless every
               change run is better than every parent run

A gain does not count when the change fails a larger share of its
operations (failed / attempted, summed over the runs) than the parent:
"improved" then reads "no worse". Both failure ratios are printed.

Per-layer metrics from traced runs (trace 1) are printed as median deltas.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                run = json.loads(line)
                key = (run["workload"], run["trace"])
                runs.setdefault(key, []).append(run["report"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, higher_is_better, bound):
    """Returns (verdict, fraction of pairs won) per the rules above."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    frac = won / len(pairs) if pairs else 0.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if frac >= 0.9 and gain > spread:
        return "improved", frac
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med != 0 and spread / abs(p_med) > bound and not all_better:
        return "unresolved", frac
    if p_med != 0 and -gain / abs(p_med) > bound:
        return "worse", frac
    return "no worse", frac


def failure_ratio(reports):
    attempted = sum(r["attempted"] for r in reports)
    return sum(r["failed"] for r in reports) / attempted if attempted else 0.0


def compare(parent_runs, change_runs, spec):
    lines = []
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    lines.append("%-15s %-18s %12s %25s %12s %25s %6s  %s" % (
        "workload", "metric", "parent", "parent q1..q3", "change",
        "change q1..q3", "won", "verdict"))
    for wl in workloads:
        parent = parent_runs.get((wl, 0), [])
        change = change_runs.get((wl, 0), [])
        if not parent or not change:
            continue
        p_failed, c_failed = failure_ratio(parent), failure_ratio(change)
        lines.append("%-15s %-18s %12.5g %25s %12.5g" % (
            wl, "failed_ratio", p_failed, "", c_failed))
        for name, m in end_to_end.items():
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            v, frac = verdict(p, c, m["better"] == "higher", m["bound"])
            if v == "improved" and c_failed > p_failed:
                v = "no worse"
            pq, cq = quartiles(p), quartiles(c)
            lines.append("%-15s %-18s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %5.0f%%  %s" % (
                wl, name, statistics.median(p), pq[0], pq[1],
                statistics.median(c), cq[0], cq[1], 100 * frac, v))
    for wl in workloads:
        parent = parent_runs.get((wl, 1), [])
        change = change_runs.get((wl, 1), [])
        if not parent or not change:
            continue
        lines.append("")
        lines.append("per-layer medians, %s (%d vs %d traced runs)" % (
            wl, len(parent), len(change)))
        for m in spec["per_layer"]:
            name = m["name"]
            p = statistics.median(r["metrics"][name]["value"] for r in parent)
            c = statistics.median(r["metrics"][name]["value"] for r in change)
            if p == 0 and c == 0:
                continue
            rel = "%+.1f%%" % (100 * (c - p) / abs(p)) if p else "n/a"
            lines.append("  %-32s %14.5g -> %-14.5g %-9s %s" % (
                name, p, c, rel, m["unit"]))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    print(compare(load_runs(argv[0]), load_runs(argv[1]), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
