#!/usr/bin/env python3
"""Gate the micro-throughput floors against a bench JSON-Lines log.

Usage: check_bench_floors.py BENCH_PR4.json [LRU_FLOOR CLIC_FLOOR]

Reads the rows AppendBenchJson (bench/bench_util.h) emitted — one JSON
object per line with at least {"bench": ..., "requests_per_sec": ...} —
and fails (exit 1) when the best observed rate for LRU or CLIC falls
below its floor (defaults: LRU 10M req/s, CLIC 2M req/s, the guardrails
bench/README.md has carried since PR 1). Exit 2 for a missing/empty log
or a policy with no rows at all, so a silently skipped bench can never
pass the gate. Stdlib only; meant for the Release CI job (sanitizer
builds are order-of-magnitude slower and do not gate floors).

Rows with mode=="overload" (from bench_overload, PR 6) are gated on
correctness instead of speed: the shed-accounting ledger must balance
EXACTLY — submitted == served + shed + timed_out + expired + stopped —
and each run must actually serve something. A request the server
neither served nor accounted for as rejected is a lost write from the
client's point of view, so any imbalance fails the build.

Rows with mode=="net" (from bench_net_serving, PR 9) extend the same
correctness gate to the wire edge: every request that arrived in a
frame whose header parsed — well-formed or poisoned — must be accounted
for exactly once, so submitted == served + shed + timed_out + expired +
stopped + wire_rejected, and each run must actually serve something.
wire_rejected counts requests inside frames the fail-closed parser
refused (bad checksum, bad lengths, garbage); a request that is neither
served, rejected by admission, nor rejected at the wire is a lost write
and fails the build. Rows may also carry healthy_ratio (healthy
connections' throughput under slow-reader + churn antagonists relative
to the fault-free wire baseline); it is printed for the record — the
>= 0.90 expectation is a bench/README.md baseline, not a hard gate,
because CI boxes share cores with the antagonists themselves.
"""
import json
import sys


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[1]
    floors = {
        "LRU": float(argv[2]) if len(argv) > 2 else 10e6,
        "CLIC": float(argv[3]) if len(argv) > 3 else 2e6,
    }
    best = {policy: None for policy in floors}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"check_bench_floors: cannot read {path}: {e}", file=sys.stderr)
        return 2
    rows = 0
    overload_rows = 0
    overload_failures = 0
    net_rows = 0
    net_failures = 0
    net_ratios = []  # (bench name, healthy_ratio) for the record
    for line in lines:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        rows += 1
        name = row.get("bench", "")
        if row.get("mode") == "net":
            net_rows += 1
            submitted = int(row.get("submitted", -1))
            parts_sum = sum(int(row.get(k, 0)) for k in
                            ("served", "shed", "timed_out", "expired",
                             "stopped", "wire_rejected"))
            served = int(row.get("served", 0))
            if submitted < 0 or submitted != parts_sum or served <= 0:
                print(f"check_bench_floors: {name}: net ledger broken: "
                      f"submitted={submitted} != served+shed+timed_out+"
                      f"expired+stopped+wire_rejected={parts_sum} "
                      f"(served={served})", file=sys.stderr)
                net_failures += 1
            if "healthy_ratio" in row:
                net_ratios.append((name, float(row["healthy_ratio"])))
            continue  # net rows never feed the throughput floors
        if row.get("mode") == "overload":
            overload_rows += 1
            submitted = int(row.get("submitted", -1))
            parts_sum = sum(int(row.get(k, 0)) for k in
                            ("served", "shed", "timed_out", "expired",
                             "stopped"))
            served = int(row.get("served", 0))
            if submitted < 0 or submitted != parts_sum or served <= 0:
                print(f"check_bench_floors: {name}: overload ledger broken: "
                      f"submitted={submitted} != served+shed+timed_out+"
                      f"expired+stopped={parts_sum} (served={served})",
                      file=sys.stderr)
                overload_failures += 1
            continue  # overload rows never feed the throughput floors
        rate = float(row.get("requests_per_sec", 0.0))
        # A row counts toward a policy when its bench name contains the
        # policy as a path component (Micro/requests_per_second/LRU,
        # MicroBatch/CLIC/batch:4096, ...).
        parts = name.split("/")
        for policy in floors:
            if policy in parts:
                if best[policy] is None or rate > best[policy]:
                    best[policy] = rate
    if rows == 0:
        print(f"check_bench_floors: {path} has no rows", file=sys.stderr)
        return 2
    if overload_rows:
        verdict = "OK" if overload_failures == 0 else "BROKEN"
        print(f"check_bench_floors: overload ledger exact in "
              f"{overload_rows - overload_failures}/{overload_rows} rows "
              f"{verdict}")
    if net_rows:
        verdict = "OK" if net_failures == 0 else "BROKEN"
        print(f"check_bench_floors: net ledger exact in "
              f"{net_rows - net_failures}/{net_rows} rows {verdict}")
        for name, ratio in net_ratios:
            print(f"check_bench_floors: {name}: healthy_ratio = "
                  f"{ratio:.2f} (README baseline: >= 0.90)")
    failed = overload_failures > 0 or net_failures > 0
    for policy, floor in floors.items():
        rate = best[policy]
        if rate is None:
            print(f"check_bench_floors: no rows for {policy} in {path}",
                  file=sys.stderr)
            return 2
        verdict = "OK" if rate >= floor else "BELOW FLOOR"
        print(f"check_bench_floors: {policy:5s} best {rate/1e6:8.2f} M req/s "
              f"(floor {floor/1e6:.0f}M) {verdict}")
        failed = failed or rate < floor
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
