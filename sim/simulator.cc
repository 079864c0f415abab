#include "sim/simulator.h"

#include <algorithm>

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

void ClientTally::Grow(ClientId client) {
  counts_.resize(static_cast<std::size_t>(client) + 1);
}

CacheStats ClientTally::FoldInto(
    std::map<ClientId, CacheStats>& per_client) const {
  CacheStats total;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    const Counts& k = counts_[c];
    CacheStats stats;
    stats.reads = k[0] + k[1];
    stats.read_hits = k[1];
    stats.writes = k[2] + k[3];
    stats.write_hits = k[3];
    if (stats.reads + stats.writes == 0) continue;
    per_client[static_cast<ClientId>(c)] += stats;
    total += stats;
  }
  return total;
}

SimResult Simulate(const Trace& trace, Policy& policy) {
  const Request* reqs = trace.requests.data();
  const std::size_t total = trace.requests.size();
  ClientTally tally;
  std::uint8_t hits[kSimulateBatch];
  for (std::size_t pos = 0; pos < total; pos += kSimulateBatch) {
    const std::size_t count = std::min(kSimulateBatch, total - pos);
    policy.AccessBatch(reqs + pos, pos, count, hits);
    tally.Record(reqs + pos, hits, count);
  }
  SimResult result;
  result.total = tally.FoldInto(result.per_client);
  return result;
}

}  // namespace clic
