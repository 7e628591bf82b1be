#!/usr/bin/env python3
"""Compare two sets of perf-ledger runs: a parent commit and a change.

Usage:
    python3 perf_ledger/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are files or directories holding the standard output
of `perf` runs; every `{"ledger":"tnb-perf",...}` line is one run. Runs
pair by (workload, seed) in the order they appear, so run both sides on
the same seeds, alternating which side runs first.

For every untraced end-to-end metric and workload it applies the rule
of the choosing-metrics guide, section 8:
  - at least 10 pairs are needed for any verdict;
  - "gain" only when the change wins at least 9/10 of the pairs (ties
    count for neither side) and the medians differ by more than the
    parent's interquartile range;
  - "REGRESSION" when the change's median is worse than the parent's by
    more than the metric's bound (a share of the parent's median);
  - "unresolved" when either side's spread (IQR / median) exceeds the
    bound, unless every change run reads better than every parent run;
  - otherwise "within bound".
Work counters of runs on the same seed and the same input fingerprint
must match exactly; every difference is listed.

Exit status: 0 when there is no regression and no counter difference,
1 otherwise (2 on a usage error).
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in sorted(names)]
    else:
        files = [path]
    runs = []
    for f in sorted(files):
        with open(f, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith('{"ledger":"tnb-perf"'):
                    runs.append(json.loads(line))
    return runs


def pair_runs(parent, change):
    """(workload, trace) -> list of (parent_run, change_run) on equal seeds."""
    def index(runs):
        out = {}
        for r in runs:
            out.setdefault((r["workload"], r["trace"], r["seed"]), []).append(r)
        return out

    p, c = index(parent), index(change)
    pairs = {}
    for key in sorted(set(p) & set(c), key=str):
        for a, b in zip(p[key], c[key]):
            pairs.setdefault(key[:2], []).append((a, b))
    return pairs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def spread(v):
    lo, hi = quartiles(v)
    med = statistics.median(v)
    return (hi - lo) / abs(med) if med else float("inf")


def verdict(spec, pv, cv):
    """Returns (verdict, relative gap of the change median, wins)."""
    higher = spec["better"] == "higher"
    bound = spec["bound"]
    mp, mc = statistics.median(pv), statistics.median(cv)
    gap = (mc - mp) / abs(mp) if mp else 0.0
    worse = -gap if higher else gap
    better = lambda a, b: a > b if higher else a < b
    wins = sum(1 for a, b in zip(pv, cv) if better(b, a))
    if len(pv) < MIN_PAIRS:
        return f"too few pairs ({len(pv)} < {MIN_PAIRS})", gap, wins
    if worse > bound:
        return "REGRESSION", gap, wins
    lo, hi = quartiles(pv)
    if wins >= WIN_SHARE * len(pv) and better(mc, mp) and abs(mc - mp) > hi - lo:
        return "gain", gap, wins
    all_better = all(better(b, a) for a in pv for b in cv)
    if (spread(pv) > bound or spread(cv) > bound) and not all_better:
        return "unresolved", gap, wins
    return "within bound", gap, wins


def main(argv):
    ap = argparse.ArgumentParser(description="Compare parent and change perf-ledger runs.")
    ap.add_argument("parent", help="file or directory of parent-commit run outputs")
    ap.add_argument("change", help="file or directory of change run outputs")
    ap.add_argument("--benchmark", help="BENCHMARK.json with the metric bounds",
                    default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                         "..", "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    pairs = pair_runs(load_runs(args.parent), load_runs(args.change))
    if not pairs:
        print("no runs pair up (same workload, trace mode and seed on both sides)")
        return 1

    bad = False
    largest = {}
    for (workload, trace), ps in sorted(pairs.items(), key=str):
        if not trace:
            print(f"\n{workload}: {len(ps)} pairs")
            print(f"  {'metric':22s} {'parent median [q1, q3]':>34s} "
                  f"{'change median [q1, q3]':>34s} {'gap':>8s} {'wins':>6s}  verdict")
            for name, spec in specs.items():
                pv = [a["metrics"][name]["value"] for a, _ in ps if name in a["metrics"]]
                cv = [b["metrics"][name]["value"] for _, b in ps if name in b["metrics"]]
                if not pv or len(pv) != len(cv):
                    print(f"  {name:22s} missing on one side")
                    bad = True
                    continue
                v, gap, wins = verdict(spec, pv, cv)
                bad |= v == "REGRESSION"
                plo, phi = quartiles(pv)
                clo, chi = quartiles(cv)
                print(f"  {name:22s} {statistics.median(pv):12.5g} [{plo:9.4g}, {phi:9.4g}] "
                      f"{statistics.median(cv):12.5g} [{clo:9.4g}, {chi:9.4g}] "
                      f"{gap:+8.2%} {wins:3d}/{len(pv):<2d}  {v}")
                if abs(gap) >= abs(largest.get(name, (0.0, ""))[0]):
                    largest[name] = (gap, workload)
        diffs = []
        for a, b in ps:
            if a["input"] != b["input"]:
                diffs.append(f"seed {a['seed']}: inputs differ, counters not compared")
                continue
            for k in sorted(set(a["counters"]) | set(b["counters"])):
                x, y = a["counters"].get(k), b["counters"].get(k)
                if x != y:
                    diffs.append(f"seed {a['seed']}: {k} {x} -> {y}")
        mode = "traced" if trace else "untraced"
        if diffs:
            bad |= any("->" in d for d in diffs)
            print(f"  counters ({mode}):")
            for d in diffs:
                print(f"    {d}")
        else:
            print(f"  counters ({mode}): identical on all {len(ps)} pairs")
    if largest:
        print("\nlargest median gap per metric:")
        for name, (gap, workload) in largest.items():
            print(f"  {name:22s} {gap:+8.2%}  ({workload})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
