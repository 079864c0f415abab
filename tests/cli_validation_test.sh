#!/bin/sh
# CLI argument-validation regression test, run by CTest:
#   cli_validation_test.sh <clic_sweep> <clic_serve>
#
# Contract under test (the clic_sweep satellite bugfix): an unknown
# --policies / --traces / --figure token must fail fast with the
# offending token AND the valid set on stderr and a non-zero exit —
# never a silent skip, and never a bare abort deep in trace resolution.
# None of the rejected invocations may start a simulation; the two
# verified runs serve a 2,000-request slice, so the whole script runs
# in well under a second.
set -u

SWEEP="$1"
SERVE="$2"
failures=0

# expect_reject <description> <token-that-must-appear> <valid-name-that-must-appear> -- cmd args...
expect_reject() {
  desc="$1"; token="$2"; valid="$3"; shift 3
  [ "$1" = "--" ] && shift
  # The redirect order is deliberate: capture stderr (the contract
  # under test), discard stdout.
  # shellcheck disable=SC2069
  err=$("$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL: $desc: expected non-zero exit, got 0" >&2
    failures=$((failures + 1))
    return
  fi
  # 2 is the CLI-usage exit code; anything >= 128 means a signal (the
  # 'bare abort' the bug report is about).
  if [ "$status" -ge 128 ]; then
    echo "FAIL: $desc: died by signal (exit $status) instead of a clean error" >&2
    failures=$((failures + 1))
    return
  fi
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $desc: exit $status, expected the usage exit code 2" >&2
    failures=$((failures + 1))
    return
  fi
  case "$err" in
    *"$token"*) : ;;
    *) echo "FAIL: $desc: stderr does not name the offending token '$token':" >&2
       echo "$err" >&2
       failures=$((failures + 1))
       return ;;
  esac
  case "$err" in
    *"$valid"*) : ;;
    *) echo "FAIL: $desc: stderr does not list the valid set (expected '$valid'):" >&2
       echo "$err" >&2
       failures=$((failures + 1))
       return ;;
  esac
  echo "ok: $desc"
}

# expect_verified <description> -- cmd args...: exit 0 and print
# "verify OK".
expect_verified() {
  desc="$1"; shift
  [ "$1" = "--" ] && shift
  out=$("$@" 2>&1)
  status=$?
  case "$status:$out" in
    0:*"verify OK"*) echo "ok: $desc" ;;
    *) echo "FAIL: $desc: exit $status without 'verify OK':" >&2
       echo "$out" >&2
       failures=$((failures + 1)) ;;
  esac
}

expect_reject "clic_sweep unknown trace" "NO_SUCH_TRACE" "DB2_C60" -- \
  "$SWEEP" --traces=NO_SUCH_TRACE --policies=LRU --cache-pages=100
expect_reject "clic_sweep unknown trace among known ones" "BOGUS" "MY_H65" -- \
  "$SWEEP" --traces=DB2_C60,BOGUS --policies=LRU --cache-pages=100
expect_reject "clic_sweep unknown policy" "LRUU" "CLIC" -- \
  "$SWEEP" --traces=DB2_C60 --policies=LRUU --cache-pages=100
expect_reject "clic_sweep unknown figure" "12" "ablation" -- \
  "$SWEEP" --figure=12
expect_reject "clic_sweep unknown figure lists scenario grids" "12" "scan-pollution" -- \
  "$SWEEP" --figure=12
expect_reject "clic_sweep unknown trace lists scenario presets" "BOGUS" "scan-pollute" -- \
  "$SWEEP" --traces=BOGUS --policies=LRU --cache-pages=100
expect_reject "clic_sweep bad inline scenario spec" "theta" "zipf" -- \
  "$SWEEP" --traces=zipf:theta=banana --policies=LRU --cache-pages=100
expect_reject "clic_sweep noise over an unknown base" "NOPE~noise=1" "derived token" -- \
  "$SWEEP" --traces=NOPE~noise=1 --policies=CLIC --cache-pages=100
expect_reject "clic_sweep noise T out of range" "DB2_C60~noise=9" "[0, 8]" -- \
  "$SWEEP" --traces=DB2_C60~noise=9 --policies=CLIC --cache-pages=100
expect_reject "clic_sweep empty interleave component" "DB2_C60++DB2_C300" "derived token" -- \
  "$SWEEP" --traces=DB2_C60++DB2_C300 --policies=CLIC --cache-pages=100
expect_reject "clic_serve empty interleave component" "DB2_C60+" "derived token" -- \
  "$SERVE" --workload=DB2_C60+
expect_reject "clic_sweep empty policy token" "empty token" "--policies" -- \
  "$SWEEP" --traces=DB2_C60 --policies=LRU,,CLIC --cache-pages=100
expect_reject "clic_sweep trailing comma in traces" "empty token" "--traces" -- \
  "$SWEEP" --traces=DB2_C60, --policies=LRU --cache-pages=100
expect_reject "clic_sweep unknown flag" "--bogus" "help" -- \
  "$SWEEP" --bogus=1
expect_reject "clic_sweep bad thread count" "abc" "positive integer" -- \
  "$SWEEP" --figure=6 --threads=abc
# Both tools parse the CLIC flags with one parser, so both list the
# valid trackers.
expect_reject "clic_sweep unknown tracker" "foo" "exact, space_saving, lossy_counting" -- \
  "$SWEEP" --figure=6 --tracker=foo
expect_reject "clic_serve unknown tracker" "foo" "exact, space_saving, lossy_counting" -- \
  "$SERVE" --trace=DB2_C60 --tracker=foo

expect_reject "clic_serve unknown trace" "NOPE" "DB2_C60" -- \
  "$SERVE" --trace=NOPE
expect_reject "clic_serve unknown workload" "NOPE" "scan-pollute" -- \
  "$SERVE" --workload=NOPE
expect_reject "clic_serve bad inline workload spec" "scan-every" "scan-mix" -- \
  "$SERVE" --workload=scan-mix:scan-every=0
expect_reject "clic_serve trace and workload clash" "--workload" "exactly one" -- \
  "$SERVE" --trace=DB2_C60 --workload=scan-pollute
expect_reject "clic_serve unknown policy" "FIFO" "CLIC" -- \
  "$SERVE" --trace=DB2_C60 --policy=FIFO
expect_reject "clic_serve OPT rejected" "OPT" "clairvoyant" -- \
  "$SERVE" --trace=DB2_C60 --policy=OPT
expect_reject "clic_serve missing trace" "--trace" "DB2_C60" -- \
  "$SERVE" --policy=LRU
expect_reject "clic_serve verify without deterministic" "--verify" "--deterministic" -- \
  "$SERVE" --trace=DB2_C60 --verify

# One number rule for every text input (common/text_parse.h): a value
# must start with a digit, so a leading space or sign is rejected, not
# wrapped (' -3' read past its space sizes a 2^64-3-page cache) or
# skipped (a fault plan's "every= -1" read that way sheds nothing).
expect_reject "clic_serve space-led negative cache pages" " -3" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --cache-pages=' -3'
expect_reject "clic_sweep space-led negative cache pages" " -3" "positive integer" -- \
  "$SWEEP" --traces=DB2_C60 --policies=LRU --cache-pages=' -3'
expect_reject "clic_serve negative scenario seed" "-1" "seed=N" -- \
  "$SERVE" --workload='zipf:seed=-1'
expect_reject "clic_sweep negative scan burst spacing" "-1" "scan-every=N" -- \
  "$SWEEP" --traces='scan-mix:scan-every=-1' --policies=LRU --cache-pages=100
expect_reject "clic_serve negative phase length" "-7" "phase-len=N" -- \
  "$SERVE" --workload='phase:phase-len=-7'
expect_reject "clic_serve space-led negative fault count" "shed:every= -1" "shed:every=N" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan='shed:every= -1'
# --traces splits at commas, but a key=value after an inline spec is
# part of it; one that follows no inline spec is named.
expect_reject "clic_sweep key after a named trace" "theta=0.9" "inline spec" -- \
  "$SWEEP" --traces=DB2_C60,theta=0.9 --policies=LRU --cache-pages=100
expect_reject "clic_sweep empty token between traces" "empty token" "--traces" -- \
  "$SWEEP" --traces=DB2_C60,,MY_H65 --policies=LRU --cache-pages=100

# Server sizing and overload-resilience flags: zero and negative
# numeric values must be rejected up front — strtoull would otherwise
# wrap "-3" to 2^64-3 and size 16 exabytes of client state.
expect_reject "clic_serve zero shards" "--shards" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --shards=0
expect_reject "clic_serve negative clients wraparound" "-3" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --clients=-3
expect_reject "clic_serve zero batch" "--batch" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --batch=0
expect_reject "clic_serve zero cache pages" "--cache-pages" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --cache-pages=0
expect_reject "clic_serve unknown fault clause" "flood" "stall:" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan=flood:every=2
expect_reject "clic_serve fault clause missing field" "shed" "every" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan=shed:
expect_reject "clic_serve verify vs corruption" "corrupt" "baseline" -- \
  "$SERVE" --trace=DB2_C60 --deterministic --verify --fault-plan=corrupt:every=3
expect_reject "clic_serve verify vs deadline" "--deadline-ms" "reproducible" -- \
  "$SERVE" --trace=DB2_C60 --deterministic --verify --deadline-ms=5

# Thread-per-core topology flags (PR 7): a consumer owning zero shards
# would idle forever — each misuse must fail fast naming the offending
# value.
expect_reject "clic_serve zero consumers" "--consumers" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --consumers=0
expect_reject "clic_serve consumers exceed shards" "--consumers=4" "exceeds --shards" -- \
  "$SERVE" --trace=DB2_C60 --shards=2 --consumers=4

# Network front-end flags (PR 9): numeric garbage fails fast before a
# socket is opened, net tuning without a net mode is a typo, and the
# verify-over-the-wire gate only exists with the loopback client, whose
# drivers --deterministic orders — each rejection must name the
# offender and print the valid combinations.
expect_reject "clic_serve zero io threads" "--io-threads" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --connect --io-threads=0
expect_reject "clic_serve negative io threads wraparound" "-2" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --connect --io-threads=-2
expect_reject "clic_serve zero conn limit" "--conn-limit" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --connect --conn-limit=0
expect_reject "clic_serve port out of range" "--port" "0..65535" -- \
  "$SERVE" --trace=DB2_C60 --listen --port=65536
expect_reject "clic_serve negative port wraparound" "-1" "non-negative integer" -- \
  "$SERVE" --trace=DB2_C60 --listen --port=-1
expect_reject "clic_serve garbage read timeout" "abc" "finite non-negative" -- \
  "$SERVE" --trace=DB2_C60 --connect --read-timeout-ms=abc
expect_reject "clic_serve net tuning without net mode" "--port/--io-threads" "--connect" -- \
  "$SERVE" --trace=DB2_C60 --io-threads=2
expect_reject "clic_serve listen and connect clash" "--listen and --connect" "valid combinations" -- \
  "$SERVE" --trace=DB2_C60 --listen --connect
expect_reject "clic_serve listen with verify" "--listen" "--connect --deterministic --verify" -- \
  "$SERVE" --trace=DB2_C60 --listen --deterministic --verify
expect_reject "clic_serve listen with deterministic" "--deterministic" "--connect --deterministic --verify" -- \
  "$SERVE" --trace=DB2_C60 --listen --deterministic
expect_reject "clic_serve wire batch above frame limit" "--batch=70000" "65535" -- \
  "$SERVE" --trace=DB2_C60 --connect --batch=70000
expect_reject "clic_serve conn limit below clients" "--conn-limit=2" "--clients=8" -- \
  "$SERVE" --trace=DB2_C60 --connect --clients=8 --conn-limit=2
expect_reject "clic_serve verify vs net reset" "net:reset" "baseline" -- \
  "$SERVE" --trace=DB2_C60 --connect --deterministic --verify --fault-plan=net:reset=2
expect_reject "clic_serve net fault clause without trigger" "net" "torn-write" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan=net:stall-ms=5

# Adaptive-window flags (PR 10): the churn threshold is a similarity in
# [0, 1], the resolved floor/ceiling pair must not be inverted (whether
# explicit or defaulted from the window), and a zero window can anchor
# neither a fixed nor an adaptive schedule — both tools share the
# validator, so both must reject with the same wording.
expect_reject "clic_sweep churn threshold above one" "1.5" "[0, 1]" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=100 \
  --adaptive-window --churn-threshold=1.5
expect_reject "clic_sweep negative churn threshold" "-0.5" "non-negative" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=100 \
  --adaptive-window --churn-threshold=-0.5
expect_reject "clic_sweep inverted window bounds" "--min-window=5000" "min-window <= max-window" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=100 \
  --adaptive-window --min-window=5000 --max-window=200
expect_reject "clic_sweep defaulted floor exceeds explicit ceiling" "defaulted to window/16" "min-window <= max-window" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=100 \
  --adaptive-window --window=100000 --max-window=100
expect_reject "clic_sweep adaptive with zero window" "--window" "positive integer" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=100 \
  --adaptive-window --window=0
expect_reject "clic_serve churn threshold above one" "2" "[0, 1]" -- \
  "$SERVE" --trace=DB2_C60 --adaptive-window --churn-threshold=2
expect_reject "clic_serve inverted window bounds" "--min-window=9" "min-window <= max-window" -- \
  "$SERVE" --trace=DB2_C60 --adaptive-window --min-window=9 --max-window=3
expect_reject "clic_serve adaptive with zero window" "--window" "positive integer" -- \
  "$SERVE" --trace=DB2_C60 --adaptive-window --window=0

# The other CLIC ranges, in the same shared check: the history blend r
# lies in [0, 1], and the outqueue and top-k bounds keep the slot arena
# and the Space-Saving table sizable (both crashed on bad_alloc).
expect_reject "clic_sweep decay above one" "--decay='3'" "[0, 1]" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=12000 \
  --window=2000 --decay=3
expect_reject "clic_serve decay above one" "--decay='3'" "[0, 1]" -- \
  "$SERVE" --trace=DB2_C60 --policy=CLIC --decay=3
expect_reject "clic_serve huge outqueue" "--outqueue='1e+12'" "[0, 100]" -- \
  "$SERVE" --trace=DB2_C60 --policy=CLIC --cache-pages=100 \
  --requests=2000 --outqueue=1e12
expect_reject "clic_sweep huge outqueue" "--outqueue='1e+12'" "[0, 100]" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=100 \
  --outqueue=1e12
expect_reject "clic_sweep huge top-k" "--top-k='1000000000000'" "1..1000000" -- \
  "$SWEEP" --traces=DB2_C60 --policies=CLIC --cache-pages=100 \
  --tracker=space_saving --top-k=1000000000000
expect_reject "clic_serve huge top-k" "--top-k='1000000000000'" "1..1000000" -- \
  "$SERVE" --trace=DB2_C60 --policy=CLIC --tracker=space_saving \
  --top-k=1000000000000

# Batch larger than the request budget is a typo, not a workload. This
# one loads (a tiny capped slice of) the trace, so point the cache at a
# scratch dir to keep the test hermetic.
scratch_cache=$(mktemp -d "${TMPDIR:-/tmp}/clic_cli_test.XXXXXX")
expect_reject "clic_serve batch exceeds request budget" "--batch=4096" "request budget" -- \
  "$SERVE" --trace=DB2_C60 --requests=64 --batch=4096 --cache-dir="$scratch_cache"
# --deterministic orders the drivers, not the server, so it verifies at
# any consumer and io-thread count.
expect_verified "clic_serve deterministic with two consumers" -- \
  "$SERVE" --trace=DB2_C60 --requests=2000 --cache-dir="$scratch_cache" \
  --deterministic --verify --consumers=2
expect_verified "clic_serve deterministic wire with four io threads" -- \
  "$SERVE" --trace=DB2_C60 --requests=2000 --cache-dir="$scratch_cache" \
  --connect --deterministic --verify --io-threads=4
rm -rf "$scratch_cache"

# --help and --list must stay cheap and exit 0.
for tool in "$SWEEP" "$SERVE"; do
  if ! "$tool" --help >/dev/null 2>&1; then
    echo "FAIL: $tool --help exited non-zero" >&2
    failures=$((failures + 1))
  fi
  if ! "$tool" --list >/dev/null 2>&1; then
    echo "FAIL: $tool --list exited non-zero" >&2
    failures=$((failures + 1))
  fi
done

# One flag table per tool (common/cli_util.h): a known flag in the wrong
# form is named as such, not as an unknown flag, and a setting given
# twice is rejected instead of the last one silently winning.
expect_reject "clic_serve switch given a value" "--deterministic" "takes no value" -- \
  "$SERVE" --trace=DB2_C60 --deterministic=1
expect_reject "clic_serve verify given a value" "--verify" "takes no value" -- \
  "$SERVE" --trace=DB2_C60 --verify=yes
expect_reject "clic_serve CLIC switch given a value" "--no-charge-metadata" "takes no value" -- \
  "$SERVE" --trace=DB2_C60 --no-charge-metadata=1
expect_reject "clic_serve help given a value" "--help" "takes no value" -- \
  "$SERVE" --help=1
expect_reject "clic_sweep CLIC switch given a value" "--adaptive-window" "takes no value" -- \
  "$SWEEP" --figure=6 --adaptive-window=0
expect_reject "clic_sweep list given a value" "--list" "takes no value" -- \
  "$SWEEP" --list=1
expect_reject "clic_serve valued flag without a value" "--window" "needs a value (--window=W)" -- \
  "$SERVE" --trace=DB2_C60 --window
expect_reject "clic_sweep figure without a value" "--figure" "needs a value (--figure=NAME)" -- \
  "$SWEEP" --figure
expect_reject "clic_serve flag given twice" "--shards" "given twice" -- \
  "$SERVE" --trace=DB2_C60 --shards=2 --shards=4
expect_reject "clic_serve trace given twice" "--trace" "given twice" -- \
  "$SERVE" --trace=DB2_C60 --trace=MY_H65
expect_reject "clic_sweep flag given twice" "--threads" "given twice" -- \
  "$SWEEP" --figure=6 --threads=2 --threads=4
expect_reject "clic_sweep CLIC flag given twice" "--window" "given twice" -- \
  "$SWEEP" --figure=6 --window=2000 --window=4000
expect_reject "clic_serve shed clause given twice" "shed:every=5" "shed given twice" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan='shed:every=3;shed:every=5'
expect_reject "clic_serve seed given twice" "seed=2" "seed given twice" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan='seed=1;shed:every=3;seed=2'
expect_reject "clic_serve corrupt clause given twice" "corrupt:flips=2" "corrupt given twice" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan='corrupt:every=3;corrupt:flips=2'
expect_reject "clic_serve net key given twice" "net:reset=3" "net:reset given twice" -- \
  "$SERVE" --trace=DB2_C60 --fault-plan='net:reset=2;net:reset=3'

# The README's CLI cheat-sheet (README.md's path is the optional third
# argument) lists exactly the flags each tool's --help prints.
README="${3:-}"
if [ -n "$README" ]; then
  for tool in clic_sweep clic_serve; do
    if [ "$tool" = clic_sweep ]; then bin="$SWEEP"; else bin="$SERVE"; fi
    help_flags=$("$bin" --help | sed -n 's/^  \(--[a-z-]*\).*/\1/p' | sort -u)
    sheet_flags=$(awk -v tool="$tool" '
      index($0, "`" tool "`") == 1 { inside = 1; next }
      inside && /^\|/ { rows = 1; gsub(/\\\|/, "/"); split($0, cell, "|"); print cell[2]; next }
      inside && rows { exit }' "$README" | grep -o -- '--[a-z][a-z-]*' | sort -u)
    if [ -n "$help_flags" ] && [ "$help_flags" = "$sheet_flags" ]; then
      echo "ok: README cheat-sheet lists every $tool flag"
    else
      echo "FAIL: README cheat-sheet for $tool differs from its --help:" >&2
      echo "  --help: $(echo "$help_flags" | tr '\n' ' ')" >&2
      echo "  README: $(echo "$sheet_flags" | tr '\n' ' ')" >&2
      failures=$((failures + 1))
    fi
  done
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI validation check(s) failed" >&2
  exit 1
fi
echo "all CLI validation checks passed"
