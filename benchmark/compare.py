#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per workload and metric.

    benchmark/compare.py PARENT CHANGE        judge a change against its parent
    benchmark/compare.py --stability A B      two sets of one commit agree

PARENT, CHANGE, A and B are each a directory of results files written by
benchmark/run.sh (results-<seed>.json). A change is judged on runs
paired by seed; --stability judges each set on all of its runs, so the
two sets may use different seeds. Bounds and directions come from
BENCHMARK.json at the root of the repository.

The rule for a change:
  * regression: the change's median is worse than the parent's by more
    than the metric's bound;
  * gain: the change wins at least 9 of 10 pairs (ties count for
    neither), over at least MIN_PAIRS pairs, and the medians differ by
    more than the parent's interquartile range;
  * loss: the same, with the change losing the pairs. A loss inside
    the bound is still a workload that got slower and must be dealt
    with, so it fails the comparison like a regression;
  * unresolved: a side's spread (interquartile range over median)
    exceeds the bound, unless every change run beats, or loses to, every
    parent run;
  * otherwise: within bound.
read_hit_ratio is exact for a given seed, so any paired difference is
also reported, as "decisions changed".

Per-layer metrics and the recorded tail quantiles have no bound; they
are judged for gains only and never fail the comparison. Exit status 1
on a regression or a loss of an end-to-end metric (or, with
--stability, any disagreement), 2 on bad input.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
EXACT = {"read_hit_ratio"}
# Seed-paired runs needed before a gain or a loss can be claimed.
MIN_PAIRS = 10
# Runs per set before --stability can say that two sets agree.
MIN_STABILITY_RUNS = 3
# setup_s is bounded only on its median: it measures under a second of
# trace generation and file writes, whose spread across runs moves with
# the disk and page cache, not with the code. Its bound catches work
# moved into set-up; its spread is not held to that bound.
SPREAD_UNCHECKED = {"setup_s"}


def load_spec():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def result_files(directory):
    files = sorted(glob.glob(os.path.join(directory, "results-*.json")))
    if not files:
        print(f"compare.py: no results-*.json in '{directory}'",
              file=sys.stderr)
        sys.exit(2)
    return files


def load_runs(arg, metrics):
    """{(workload, metric): {seed: value}} plus the better-direction of
    the tail quantiles recorded under "info"."""
    runs = {}
    for path in result_files(arg):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"compare.py: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        for w in doc["workloads"]:
            values = {k: v["value"] for k, v in w["metrics"].items()}
            values.update({k: v for k, v in w.get("info", {}).items()
                           if k.startswith("tail.")})
            for name, value in values.items():
                if name not in metrics and not name.startswith("tail."):
                    continue
                by_seed = runs.setdefault((w["workload"], name), {})
                if w["seed"] in by_seed:
                    print(f"compare.py: two runs of {w['workload']} {name} "
                          f"at seed {w['seed']} in '{arg}'; keep one run "
                          "per seed in a set", file=sys.stderr)
                    sys.exit(2)
                by_seed[w["seed"]] = value
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(parent, change, better, bound):
    """Returns (verdict, failing) for one workload and metric."""
    seeds = sorted(set(parent) & set(change))
    a = [parent[s] for s in seeds]
    b = [change[s] for s in seeds]
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    all_better = min(b) > max(a) if sign < 0 else max(b) < min(a)
    all_worse = max(b) < min(a) if sign < 0 else min(b) > max(a)
    gap = abs(med_b - med_a) > (q3a - q1a)
    if bound is not None and worse > bound:
        if max(spread(a), spread(b)) <= bound or all_worse:
            return "REGRESSION", True
        return "unresolved", False
    if bound is not None and max(spread(a), spread(b)) > bound:
        return ("better (every run)" if all_better else "unresolved"), False
    n = len(seeds)
    if n >= MIN_PAIRS and gap and wins >= 0.9 * n:
        return "gain", False
    if n >= MIN_PAIRS and gap and losses >= 0.9 * n:
        return "loss", bound is not None
    return ("within bound" if bound is not None else "no claim"), False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="parent runs (or first set with --stability)")
    ap.add_argument("b", help="change runs (or second set with --stability)")
    ap.add_argument("--stability", action="store_true",
                    help="check that two sets of runs of one commit agree")
    args = ap.parse_args()

    metrics = load_spec()
    runs_a = load_runs(args.a, metrics)
    runs_b = load_runs(args.b, metrics)
    keys = sorted(set(runs_a) & set(runs_b))
    if not keys:
        print("compare.py: the two sets share no workload and metric",
              file=sys.stderr)
        return 2

    failing = False
    print(f"{'workload':22} {'metric':30} {'A median':>12} {'B median':>12} "
          f"{'B vs A':>8} {'spreadA':>8} {'spreadB':>8} {'bound':>6} "
          f"{'runs':>6}  verdict")
    for workload, name in keys:
        a, b = runs_a[(workload, name)], runs_b[(workload, name)]
        better, bound = metrics.get(name, ("lower", None))
        if args.stability:
            # Two sets of one commit need not share seeds: each set is
            # judged on all of its runs.
            if bound is None:
                continue
            va, vb = list(a.values()), list(b.values())
        else:
            seeds = sorted(set(a) & set(b))
            if not seeds:
                continue
            va = [a[s] for s in seeds]
            vb = [b[s] for s in seeds]
        runs = min(len(va), len(vb))
        med_a, med_b = statistics.median(va), statistics.median(vb)
        rel = (med_b - med_a) / abs(med_a) if med_a else 0.0
        if args.stability:
            sign = 1.0 if better == "lower" else -1.0
            bad = [f"spread {spread(v):.3f} > bound"
                   for v in (va, vb)
                   if name not in SPREAD_UNCHECKED and spread(v) > bound]
            if sign * rel > bound:
                bad.append(f"B worse by {sign * rel:.3f} > bound")
            if runs < MIN_STABILITY_RUNS:
                bad.append(f"fewer than {MIN_STABILITY_RUNS} runs in a set")
            verdict = "; ".join(bad) if bad else "agree"
            failing = failing or bool(bad)
        else:
            verdict, fail = judge(a, b, better, bound)
            failing = failing or fail
            if name in EXACT:
                changed = [s for s in seeds if a[s] != b[s]]
                if changed:
                    verdict += f"; decisions changed at seeds {changed}"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:22} {name:30} {med_a:12.6g} {med_b:12.6g} "
              f"{rel:+8.2%} {spread(va):8.3f} {spread(vb):8.3f} "
              f"{bound_text:>6} {runs:6d}  {verdict}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
