// Trace-driven cache simulation: replays a request trace through a
// replacement policy and accounts read/write hits, overall and per
// client (Figure 11 needs the per-client split).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/trace.h"

namespace clic {

struct CacheStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t write_hits = 0;

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

/// The one per-client accumulator: Simulate() and every server shard
/// count their decisions here, so a counter can never be added to one
/// replay path and missed in the other. A flat table indexed by
/// ClientId, grown on demand to the largest id seen (at most 65,536
/// entries, since ClientId is 16 bits), holding one counter per (op,
/// hit) pair, so a request costs one increment and no branch on its op
/// or outcome.
class ClientTally {
 public:
  /// Counts request i of reqs[0, n) as a hit iff hits[i] != 0.
  // clic-lint: hot-path
  void Record(const Request* reqs, const std::uint8_t* hits,
              std::size_t n) {
    Counts* counts = counts_.data();
    std::size_t size = counts_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Request& r = reqs[i];
      if (r.client >= size) {
        Grow(r.client);
        counts = counts_.data();
        size = counts_.size();
      }
      const std::size_t is_write = r.op != OpType::kRead ? 1 : 0;
      ++counts[r.client][2 * is_write + (hits[i] != 0 ? 1 : 0)];
    }
  }

  /// Adds each client's counts to `per_client`, leaving out clients
  /// with no request, and returns their sum.
  CacheStats FoldInto(std::map<ClientId, CacheStats>& per_client) const;

 private:
  /// Read misses, read hits, write misses, write hits.
  using Counts = std::array<std::uint64_t, 4>;
  void Grow(ClientId client);
  std::vector<Counts> counts_;
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
/// Access() by the batched-contract guarantee in core/policy.h. One
/// loop: each block's decisions go straight into a ClientTally, and
/// the total is folded from it at the end.
SimResult Simulate(const Trace& trace, Policy& policy);

}  // namespace clic
