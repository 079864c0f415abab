#!/usr/bin/env bash
# Self-test of the benchmark. Runs the smoke pass (every workload, short
# segments, every correctness gate on) untraced and traced, then checks:
#   1. every metric in BENCHMARK.json appears, with its unit, for every
#      workload (end-to-end metrics untraced, per-layer metrics traced);
#   2. compare.py flags a synthetic 20% throughput regression on the
#      replay workloads;
#   3. compare.py passes two copies of the same results.
# Exits non-zero on the first failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
seed=1

bash "$here/run.sh" --smoke --seed "$seed" >/dev/null
bash "$here/run.sh" --smoke --seed "$seed" --trace >/dev/null

python3 - "$here" "$seed" <<'EOF'
import json, os, sys

here, seed = sys.argv[1], sys.argv[2]
build = os.path.join(here, "build")
with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
    spec = json.load(f)
names = [w["name"] for w in spec["workloads"]]
missing = []
for suffix, group in (("", "end_to_end"), ("-trace", "per_layer")):
    with open(os.path.join(build, f"results-{seed}{suffix}.json")) as f:
        runs = {w["workload"]: w for w in json.load(f)["workloads"]}
    for name in names:
        run = runs.get(name)
        if run is None:
            missing.append(f"{name}: no {group} run")
            continue
        if not run["correct"]:
            missing.append(f"{name}: gates failed: {run['errors']}")
        for m in spec[group]:
            got = run["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                missing.append(f"{name}: {group} metric {m['name']} [{m['unit']}]"
                               f" missing or in another unit: {got}")

# Ten synthetic runs per side from the smoke results, paired by seed,
# with a small deterministic jitter so the quartiles are not all equal.
with open(os.path.join(build, f"results-{seed}.json")) as f:
    base = json.load(f)
for side, factor in (("parent", 1.0), ("change", 0.8)):
    d = os.path.join(build, "selftest", side)
    os.makedirs(d, exist_ok=True)
    for i in range(1, 11):
        doc = json.loads(json.dumps(base))
        doc["seed"] = i
        for w in doc["workloads"]:
            w["seed"] = i
            for k, m in w["metrics"].items():
                m["value"] *= 1.0 + 0.01 * (i % 3 - 1)
                if k == "throughput_rps" and w["workload"].startswith("replay-"):
                    m["value"] *= factor
        with open(os.path.join(d, f"results-{i}.json"), "w") as f:
            json.dump(doc, f)
if missing:
    print("selftest: metric check failed:\n  " + "\n  ".join(missing))
    sys.exit(1)
print("selftest: every metric present with its unit")
EOF

parent="$build/selftest/parent"
change="$build/selftest/change"
if out="$(python3 "$here/compare.py" "$parent" "$change")"; then
  echo "$out"
  echo "selftest: compare.py missed the synthetic regression" >&2
  exit 1
fi
for w in replay-tenants replay-phase-adaptive; do
  grep -Eq "^$w +throughput_rps .*(REGRESSION|loss)" <<<"$out" || {
    echo "$out"
    echo "selftest: $w throughput_rps not flagged" >&2
    exit 1
  }
done
if grep -Eq "^wire-.*(REGRESSION|loss)" <<<"$out"; then
  echo "$out"
  echo "selftest: a wire workload was flagged without a change" >&2
  exit 1
fi
echo "selftest: compare.py flags the synthetic 20% regression"
python3 "$here/compare.py" "$parent" "$parent" >/dev/null || {
  echo "selftest: compare.py rejected two copies of the same results" >&2
  exit 1
}
python3 "$here/compare.py" --stability "$parent" "$parent" >/dev/null || {
  echo "selftest: compare.py --stability rejected identical sets" >&2
  exit 1
}
echo "selftest: compare.py passes identical results"
echo "selftest: OK"
