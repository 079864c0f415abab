#!/usr/bin/env python3
"""Golden decision outputs, run by CTest:

    golden_outputs_test.py --sweep CLIC_SWEEP --serve CLIC_SERVE \
        --cache-dir DIR [--update]

Contract under test: caching decisions do not change unless a change
says so. Every run below prints CSV rows; only the decision columns
(requests, hits, hit ratios, per-client counts and the point that
produced them) are kept, timings are dropped, and the rows are compared
one by one with the expected files under tests/golden/. The first row
that differs is printed with the columns that moved.

The runs: every `clic_sweep --figure=` preset at 20000 requests; at
200000 requests every preset with a CLIC variant axis, where the paper's
W = 1e5 closes windows and the variants actually re-rank; Figure 6 CLIC
at 20000 with a 2000-request window (as is, with decay 0, with a
5-entry Space-Saving tracker and with the adaptive window), so window
closes and rank rebuilds happen there too; phase-shift at 200000 with
that window, which overrides the window of every CLIC variant and
keeps their other options; full-length phase-shift; and the CLIC
server with the same small window in deterministic verify mode,
in-process and over loopback.

--update rewrites the expected files from the binaries given. Use it
only in a change whose notes say which decisions moved and why.
Traces are cached in DIR (keep it in the build tree).
"""

import argparse
import csv
import io
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
CAP = "20000"
# Presets whose CLIC variants only differ once windows close.
VARIANT_PRESETS_200K = ["9", "10", "11", "window", "outqueue", "tracker"]

SWEEP_COLUMNS = [
    "trace", "policy", "variant", "cache_pages", "requests", "reads", "writes",
    "read_hits", "write_hits", "read_hit_ratio", "write_hit_ratio",
    "per_client",
]
SERVE_COLUMNS = [
    "trace", "policy", "shards", "clients", "cache_pages",
    "pages_per_shard", "batch", "requests", "reads", "writes",
    "read_hits", "write_hits", "read_hit_ratio", "write_hit_ratio",
    "submitted_requests", "per_client",
]
SERVE_ARGS = [
    "--trace=DB2_C60", "--policy=CLIC", "--shards=2", "--clients=2",
    "--cache-pages=6000", "--requests=" + CAP, "--window=2000",
    "--deterministic", "--verify",
]
FIG6_CLIC_W2000 = ["--figure=6", "--policies=CLIC", "--requests=" + CAP,
                   "--window=2000"]


def figure_presets(sweep):
    out = subprocess.run([sweep, "--list"], check=True, capture_output=True,
                         text=True).stdout
    for line in out.splitlines():
        if line.startswith("Figure presets:"):
            return [f.strip() for f in line.split(":", 1)[1].split(",")]
    sys.exit("golden_outputs: no 'Figure presets:' line in clic_sweep --list")


def runs(sweep, serve, cache_dir):
    """(name, argv, columns) for every golden run."""
    base = ["--cache-dir=" + cache_dir, "--format=csv"]
    sweep_base = [sweep, "--threads=2"] + base
    out = []
    for fig in figure_presets(sweep):
        out.append(("fig-" + fig,
                    sweep_base + ["--figure=" + fig, "--requests=" + CAP],
                    SWEEP_COLUMNS))
    for fig in VARIANT_PRESETS_200K:
        out.append(("fig-%s-200k" % fig,
                    sweep_base + ["--figure=" + fig, "--requests=200000"],
                    SWEEP_COLUMNS))
    for suffix, extra in [("", []),
                          ("-decay0", ["--decay=0"]),
                          ("-space-saving",
                           ["--tracker=space_saving", "--top-k=5"]),
                          ("-adaptive", ["--adaptive-window"])]:
        out.append(("fig-6-clic-w2000" + suffix,
                    sweep_base + FIG6_CLIC_W2000 + extra, SWEEP_COLUMNS))
    out.append(("fig-phase-shift-w2000-200k",
                sweep_base + ["--figure=phase-shift", "--requests=200000",
                              "--window=2000"], SWEEP_COLUMNS))
    out.append(("fig-phase-shift-full",
                sweep_base + ["--figure=phase-shift"], SWEEP_COLUMNS))
    out.append(("serve-clic-w2000", [serve] + base + SERVE_ARGS,
                SERVE_COLUMNS))
    out.append(("serve-clic-w2000-connect",
                [serve] + base + SERVE_ARGS + ["--connect"], SERVE_COLUMNS))
    return out


def decision_rows(name, argv, columns, env):
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s: exit %d: %s" %
                           (name, proc.returncode, " ".join(argv)))
    table = list(csv.reader(io.StringIO(proc.stdout)))
    if not table:
        raise RuntimeError("%s: no CSV output" % name)
    header = table[0]
    missing = [c for c in columns if c not in header]
    if missing:
        raise RuntimeError("%s: output lacks columns %s" % (name, missing))
    index = [header.index(c) for c in columns]
    return [columns] + [[row[i] for i in index] for row in table[1:]]


def read_golden(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def write_golden(path, rows):
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def first_difference(name, expected, actual):
    """Describes the first differing row, or returns None."""
    header = expected[0]
    for n, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            moved = [c for c, w, g in zip(header, want, got) if w != g]
            return ("%s: row %d differs in %s\n  expected: %s\n"
                    "  actual:   %s" % (name, n, ", ".join(moved) or "length",
                                        ",".join(want), ",".join(got)))
    if len(expected) != len(actual):
        return ("%s: %d rows expected, %d produced" %
                (name, len(expected) - 1, len(actual) - 1))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sweep", required=True, help="clic_sweep binary")
    ap.add_argument("--serve", required=True, help="clic_serve binary")
    ap.add_argument("--cache-dir", required=True, help="trace cache dir")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the expected files")
    args = ap.parse_args()

    # Every length is pinned on the command line; the environment's cap
    # and cache dir must not leak in.
    env = dict(os.environ)
    env.pop("CLIC_BENCH_REQUESTS", None)
    env.pop("CLIC_TRACE_CACHE_DIR", None)
    os.makedirs(args.cache_dir, exist_ok=True)
    if args.update:
        os.makedirs(GOLDEN_DIR, exist_ok=True)

    failures = 0
    planned = runs(args.sweep, args.serve, args.cache_dir)
    for name, argv, columns in planned:
        path = os.path.join(GOLDEN_DIR, name + ".csv")
        try:
            actual = decision_rows(name, argv, columns, env)
        except RuntimeError as e:
            print("FAIL: %s" % e)
            failures += 1
            continue
        if args.update:
            write_golden(path, actual)
            print("wrote %s (%d rows)" % (path, len(actual) - 1))
            continue
        if not os.path.exists(path):
            print("FAIL: %s: no expected file %s" % (name, path))
            failures += 1
            continue
        diff = first_difference(name, read_golden(path), actual)
        if diff:
            print("FAIL: " + diff)
            failures += 1
        else:
            print("ok: %s (%d rows)" % (name, len(actual) - 1))

    known = {name + ".csv" for name, _, _ in planned}
    for stale in sorted(set(os.listdir(GOLDEN_DIR)) - known):
        print("FAIL: %s has no run; delete it or add its run" % stale)
        failures += 1

    if failures:
        print("golden_outputs: %d failure(s)" % failures)
        return 1
    print("golden_outputs: %d runs match" % len(planned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
