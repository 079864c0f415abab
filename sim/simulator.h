// Trace-driven cache simulation: replays a request trace through a
// replacement policy and accounts read/write hits, overall and per
// client (Figure 11 needs the per-client split).
#pragma once

#include <map>
#include <string>

#include "core/policy.h"
#include "core/trace.h"

namespace clic {

struct CacheStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t write_hits = 0;

  /// The one place hit/miss bookkeeping lives: the simulator and the
  /// online server both account through this, so a new counter can
  /// never be added to one replay path and missed in the other.
  /// Branchless on purpose — the batched stats pass runs this back to
  /// back over a block of requests and op is data-dependent, so a
  /// conditional here would be the "one stats branch per request" the
  /// batch refactor removed.
  void Record(const Request& r, bool hit) {
    const std::uint64_t is_read = r.op == OpType::kRead ? 1 : 0;
    const std::uint64_t h = hit ? 1 : 0;
    reads += is_read;
    read_hits += is_read & h;
    writes += 1 - is_read;
    write_hits += (1 - is_read) & h;
  }

  CacheStats& operator+=(const CacheStats& o) {
    reads += o.reads;
    writes += o.writes;
    read_hits += o.read_hits;
    write_hits += o.write_hits;
    return *this;
  }

  bool operator==(const CacheStats& o) const {
    return reads == o.reads && writes == o.writes &&
           read_hits == o.read_hits && write_hits == o.write_hits;
  }
  bool operator!=(const CacheStats& o) const { return !(*this == o); }

  double ReadHitRatio() const {
    return reads ? static_cast<double>(read_hits) /
                       static_cast<double>(reads)
                 : 0.0;
  }
  double WriteHitRatio() const {
    return writes ? static_cast<double>(write_hits) /
                        static_cast<double>(writes)
                  : 0.0;
  }
};

struct SimResult {
  CacheStats total;
  std::map<ClientId, CacheStats> per_client;
};

/// The one SimResult comparison: "" when `got` equals `want` in the
/// total and in every client, otherwise one line per divergence naming
/// what diverged ("total", "client 3", "client 3 missing", "unexpected
/// client 7") with both sides' counts. An aggregate match over a
/// per-client mismatch is the subtle failure this exists to expose.
/// `clic_serve --verify` and the determinism tests report through it.
std::string ResultMismatch(const SimResult& got, const SimResult& want);

/// Requests per AccessBatch call in Simulate()'s replay loop. Large
/// enough that the one virtual dispatch, the CLIC window-boundary
/// hoist, and the stats pass are all amortized to noise; small enough
/// that the hit buffer stays in L1. Exported so the bench JSON rows
/// report the block size actually used.
inline constexpr std::size_t kSimulateBatch = 4096;

/// Replays `trace` through `policy` from a cold cache, in blocks of a
/// few thousand requests per Policy::AccessBatch call (seq = request
/// index, which OPT depends on); decisions are identical to sequential
/// Access() by the batched-contract guarantee in core/policy.h.
/// Per-client accumulation is flat-vector for dense client ids (sized
/// from the trace's cached client bound) and falls back to a map when
/// the id space is much larger than the trace, so a stray huge
/// ClientId cannot blow up the accumulator allocation.
SimResult Simulate(const Trace& trace, Policy& policy);

}  // namespace clic
