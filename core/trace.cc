#include "core/trace.h"

#include <algorithm>

#include "common/fnv1a.h"

namespace clic {

std::size_t HintRegistry::Hash::operator()(const HintVector& v) const {
  Fnv1a h;
  h.MixScalar(v.client);
  for (std::uint32_t a : v.attrs) h.MixScalar(a);
  return static_cast<std::size_t>(h.value());
}

HintSetId HintRegistry::Intern(const HintVector& v) {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  const HintSetId id = static_cast<HintSetId>(sets_.size());
  sets_.push_back(v);
  index_.emplace(sets_.back(), id);
  return id;
}

HintSetId HintRegistry::Intern(HintVector&& v) {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  const HintSetId id = static_cast<HintSetId>(sets_.size());
  sets_.push_back(std::move(v));
  index_.emplace(sets_.back(), id);
  return id;
}

std::string HintRegistry::Describe(HintSetId id) const {
  if (id >= sets_.size()) return "<unknown>";
  const HintVector& v = sets_[id];
  std::string out = "c" + std::to_string(v.client) + ":{";
  for (std::size_t i = 0; i < v.attrs.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v.attrs[i]);
  }
  out += "}";
  return out;
}

TraceStats ComputeStats(const Trace& trace) {
  TraceStats stats;
  stats.requests = trace.requests.size();
  PageId max_page = 0;
  HintSetId max_hint = 0;
  ClientId max_client = 0;
  for (const Request& r : trace.requests) {
    max_page = std::max(max_page, r.page);
    max_hint = std::max(max_hint, r.hint_set);
    max_client = std::max(max_client, r.client);
  }
  std::vector<bool> page_seen(static_cast<std::size_t>(max_page) + 1, false);
  std::vector<bool> hint_seen(static_cast<std::size_t>(max_hint) + 1, false);
  std::vector<bool> client_seen(static_cast<std::size_t>(max_client) + 1,
                                false);
  for (const Request& r : trace.requests) {
    if (r.op == OpType::kRead) {
      ++stats.reads;
    } else {
      ++stats.writes;
    }
    if (!page_seen[r.page]) {
      page_seen[r.page] = true;
      ++stats.distinct_pages;
    }
    if (!hint_seen[r.hint_set]) {
      hint_seen[r.hint_set] = true;
      ++stats.distinct_hint_sets;
    }
    if (!client_seen[r.client]) {
      client_seen[r.client] = true;
      ++stats.distinct_clients;
    }
  }
  return stats;
}

}  // namespace clic
