#!/usr/bin/env bash
# The CLIC serving benchmark: builds clic_bench from this checkout and
# runs workloads, each in its own process.
#
#   benchmark/run.sh                      every workload, seed 1, untraced
#   benchmark/run.sh --trace              every workload, traced (per-layer)
#   benchmark/run.sh --smoke              every workload, short, all gates on
#   benchmark/run.sh --workload wire-zipf --seed 3 --seconds 20 --trace 0
#
# Prints "<workload> <metric> <value> <unit>" per metric and, last, each
# workload's JSON result line. Writes benchmark/build/results-<seed>.json
# (results-<seed>-trace.json for traced runs) and, for traced runs,
# benchmark/build/trace-<workload>.json span files. Exits non-zero when a
# build fails or any correctness gate fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"
all=(wire-zipf wire-fit-small replay-tenants replay-phase-adaptive)

workloads=()
seed=1
seconds=20
trace=0
smoke=0
while (($#)); do
  case "$1" in
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
    --trace)
      if [[ "${2-}" == 0 || "${2-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; seconds=2; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
((${#workloads[@]})) || workloads=("${all[@]}")
[[ "$seed" =~ ^[0-9]+$ ]] || { echo "run.sh: --seed '$seed' is not a number" >&2; exit 2; }
[[ "$trace" == 0 || "$trace" == 1 ]] || { echo "run.sh: --trace takes 0 or 1" >&2; exit 2; }

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/server" ]]; then
  echo "run.sh: no CLIC sources next to $here; run it from a full checkout" >&2
  exit 1
fi

# Build (a no-op when up to date). Build output goes to stderr so the
# last stdout line stays the result.
mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
((jobs > 4)) && jobs=4
cmake --build "$build" --target clic_bench --parallel "$jobs" >&2

flags=(--seed="$seed" --seconds="$seconds")
suffix=""
if ((trace)); then suffix="-trace"; fi
((smoke)) && flags+=(--smoke)

status=0
for w in "${workloads[@]}"; do
  out="$build/result-$w-$seed$suffix.json"
  rm -f "$out"
  wflags=("${flags[@]}" --workload="$w" --out="$out")
  ((trace)) && wflags+=(--trace --spans="$build/trace-$w.json")
  "$build/clic_bench" "${wflags[@]}" || status=1
done

# One results file per seed: the run's context plus the latest detail
# record (metrics with their sample counts) of every workload run at
# this seed, so a single-workload run keeps the other workloads' results.
details=()
for w in "${all[@]}"; do
  out="$build/result-$w-$seed$suffix.json"
  [[ -f "$out" ]] && details+=("$out")
done
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
results="$build/results-$seed$suffix.json"
{
  printf '{"git": "%s", "nproc": %s, "seed": %s, "trace": %s, "workloads": [' \
    "$rev" "$(nproc 2>/dev/null || echo 0)" "$seed" \
    "$( ((trace)) && echo true || echo false)"
  sep=""
  for d in "${details[@]}"; do printf '%s\n' "$sep"; cat "$d"; sep=","; done
  printf ']}\n'
} >"$results"
echo "results: $results" >&2
exit "$status"
