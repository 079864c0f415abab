// Shared infrastructure for the bench drivers.
//
// Traces are generated at the DESIGN.md scaled lengths (capped by the
// CLIC_BENCH_REQUESTS environment variable if set) and cached on disk
// under CLIC_TRACE_CACHE_DIR (default: ./clic_trace_cache) through the
// process-wide sweep::TraceCache, so the bench binaries, clic_sweep and
// clic_serve never regenerate the same workloads.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"
#include "workload/trace_factory.h"

#ifndef CLIC_GIT_REV
#define CLIC_GIT_REV "unknown"
#endif

namespace clic::bench {

/// Returns the named trace, generated once per process and cached on
/// disk across processes. Thread-safe with per-trace granularity (see
/// sweep/trace_cache.h). Unknown names abort.
inline const Trace& GetTrace(const std::string& name) {
  return sweep::TraceCache::Global().Get(name);
}

/// CLIC options used throughout the evaluation (paper Section 6.1):
/// W scaled to 1e5, r = 1, Noutq = 5 per page, 1% metadata charge.
/// These are also ClicOptions' defaults; spelled out for readability.
inline ClicOptions PaperClicOptions() {
  ClicOptions options;
  options.window = 100'000;
  options.decay = 1.0;
  options.outqueue_per_page = 5.0;
  options.charge_metadata = true;
  return options;
}

/// One row of the machine-readable perf log (see AppendBenchJson). The
/// repo's perf memory: CI runs the micro benches with
/// CLIC_BENCH_JSON_OUT=BENCH_PR4.json, uploads the file as an artifact,
/// and fails the job when the LRU / CLIC floors are undershot.
struct BenchJsonRow {
  std::string bench;            // benchmark name, e.g. Micro/.../LRU
  double requests_per_sec = 0;  // the headline throughput
  std::uint64_t batch = 0;      // AccessBatch block size; 0 = scalar path
  std::uint64_t requests = 0;   // requests replayed per iteration
  std::string mode;             // free-form: "scalar", "batch", "overload"
  /// Extra pre-rendered JSON members spliced verbatim into the object
  /// (e.g. "\"shed\":12,\"timed_out\":0"). The caller owns validity;
  /// tools/check_bench_floors.py reads the overload accounting fields
  /// from here. Empty = none.
  std::string extra;
};

/// Appends `row` (plus the build's git revision) as one self-contained
/// JSON object per line to $CLIC_BENCH_JSON_OUT. JSON-Lines on purpose:
/// several bench binaries append to one file from separate processes,
/// which a single JSON array could not survive. No-op when the env var
/// is unset.
inline void AppendBenchJson(const BenchJsonRow& row) {
  const char* path = std::getenv("CLIC_BENCH_JSON_OUT");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot append to CLIC_BENCH_JSON_OUT=%s\n",
                 path);
    return;
  }
  std::string line = "{\"bench\":\"";
  line.append(sweep::JsonEscaped(row.bench));
  line.append("\",\"requests_per_sec\":");
  sweep::AppendDouble(&line, row.requests_per_sec);
  line.append(",\"batch\":");
  line.append(std::to_string(row.batch));
  line.append(",\"requests\":");
  line.append(std::to_string(row.requests));
  line.append(",\"mode\":\"");
  line.append(sweep::JsonEscaped(row.mode));
  line.push_back('"');
  if (!row.extra.empty()) {
    line.push_back(',');
    line.append(row.extra);
  }
  line.append(",\"git_rev\":\"");
  line.append(sweep::JsonEscaped(CLIC_GIT_REV));
  line.append("\"}\n");
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
}

namespace detail {
inline Trace MakeMicroTrace(std::uint64_t pages, double zipf_z,
                            std::size_t n) {
  Trace t;
  Rng rng(0xBEEF);
  ZipfGenerator zipf(pages, zipf_z);
  std::vector<HintSetId> hints;
  for (std::uint32_t i = 0; i < 64; ++i) {
    hints.push_back(t.hints->Intern(HintVector{0, {i}}));
  }
  t.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = zipf(rng);
    r.hint_set = hints[r.page % hints.size()];
    if (rng.Chance(0.3)) {
      r.op = OpType::kWrite;
      r.write_kind =
          rng.Chance(0.5) ? WriteKind::kReplacement : WriteKind::kRecovery;
    }
    t.requests.push_back(r);
  }
  t.CacheMaxClient();
  return t;
}
}  // namespace detail

/// The 1M-request synthetic Zipf trace (100k pages, 30% writes, 64 hint
/// sets) the micro throughput and batch-vs-scalar benches replay.
/// Deliberately independent of CLIC_BENCH_REQUESTS so the guardrail
/// numbers in bench/README.md are comparable across runs.
inline const Trace& MicroSyntheticTrace() {
  static const Trace trace = detail::MakeMicroTrace(100'000, 0.9, 1'000'000);
  return trace;
}

/// Server-scale variant: 4M pages, so the page table and slot arenas
/// overflow L2 and every access path pays real memory latency — the
/// regime heavy multi-tenant traffic puts a storage server in, and the
/// one where the batched hot path's software prefetching matters most.
inline const Trace& MicroServerScaleTrace() {
  static const Trace trace =
      detail::MakeMicroTrace(4'000'000, 0.8, 4'000'000);
  return trace;
}

}  // namespace clic::bench
