#include "sim/simulator.h"

#include <vector>

namespace clic {
namespace {

std::string Counts(const CacheStats& s) {
  return "reads=" + std::to_string(s.reads) +
         " writes=" + std::to_string(s.writes) +
         " read_hits=" + std::to_string(s.read_hits) +
         " write_hits=" + std::to_string(s.write_hits);
}

}  // namespace

std::string ResultMismatch(const SimResult& got, const SimResult& want) {
  std::string out;
  const auto line = [&out](const std::string& what, const std::string& text) {
    out.append(what).append(": ").append(text).push_back('\n');
  };
  if (got.total != want.total) {
    line("total", "got " + Counts(got.total) + ", want " + Counts(want.total));
  }
  for (const auto& [client, stats] : want.per_client) {
    const std::string name = "client " + std::to_string(client);
    const auto it = got.per_client.find(client);
    if (it == got.per_client.end()) {
      line(name + " missing", "want " + Counts(stats));
    } else if (it->second != stats) {
      line(name, "got " + Counts(it->second) + ", want " + Counts(stats));
    }
  }
  for (const auto& [client, stats] : got.per_client) {
    if (want.per_client.count(client) == 0) {
      line("unexpected client " + std::to_string(client),
           "got " + Counts(stats));
    }
  }
  return out;
}

SimResult Simulate(const Trace& trace, Policy& policy) {
  SimResult result;
  // Client ids are usually small dense integers, so the common path
  // uses flat per-client accumulators pre-sized from the trace's cached
  // client bound (computed once at build/load time; legacy traces fall
  // back to one scan inside MaxClient()), folded into the map
  // afterwards. One stray huge ClientId must not turn that pre-size
  // into a massive allocation, so a density bound guards the flat path:
  // when the id space is much larger than the trace itself, fall back
  // to the map.
  const std::size_t spread =
      trace.requests.empty() ? 0
                             : static_cast<std::size_t>(trace.MaxClient()) + 1;
  const bool dense = spread <= 1024 || spread <= 2 * trace.requests.size();
  // The replay loop is batched: one AccessBatch call per block of
  // requests, then one stats pass over the block's hit bytes. Policies
  // guarantee the decisions are bit-identical to sequential Access().
  // Stats are touched once per batch and only per client — the total is
  // folded from the per-client accumulators at the end (it is additive),
  // so the old loop's two Record() calls per request become one
  // branchless one, with a zero-indexing fast path for the single-
  // client traces the microbenches replay.
  const Request* reqs = trace.requests.data();
  const std::size_t total = trace.requests.size();
  std::uint8_t hits[kSimulateBatch];
  if (dense) {
    std::vector<CacheStats> clients(spread);
    CacheStats* const client_stats = clients.data();
    const bool single_client = spread <= 1;
    for (std::size_t pos = 0; pos < total; pos += kSimulateBatch) {
      const std::size_t count = std::min(kSimulateBatch, total - pos);
      policy.AccessBatch(reqs + pos, pos, count, hits);
      if (single_client) {
        CacheStats& c = client_stats[0];
        for (std::size_t i = 0; i < count; ++i) {
          c.Record(reqs[pos + i], hits[i] != 0);
        }
      } else {
        for (std::size_t i = 0; i < count; ++i) {
          const Request& r = reqs[pos + i];
          client_stats[r.client].Record(r, hits[i] != 0);
        }
      }
    }
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const CacheStats& c = clients[i];
      if (c.reads + c.writes == 0) continue;
      result.total += c;
      result.per_client.emplace(static_cast<ClientId>(i), c);
    }
  } else {
    // Sparse ids: accumulate straight into the result map. Slower per
    // request, but only ever taken for degenerate traces where a flat
    // vector would waste far more memory than the trace occupies.
    for (std::size_t pos = 0; pos < total; pos += kSimulateBatch) {
      const std::size_t count = std::min(kSimulateBatch, total - pos);
      policy.AccessBatch(reqs + pos, pos, count, hits);
      for (std::size_t i = 0; i < count; ++i) {
        const Request& r = reqs[pos + i];
        result.per_client[r.client].Record(r, hits[i] != 0);
      }
    }
    for (const auto& [client, stats] : result.per_client) {
      result.total += stats;
    }
  }
  return result;
}

}  // namespace clic
