// Deterministic in-memory workload shared by the server, fault
// injection, wire and sweep tests: `num_clients` clients, one hint set
// each, a skewed page pattern (a hot set mod 61 and a cold sweep mod
// 509) with ~20% writes. No disk and no generation cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"

namespace clic {

inline Trace MakeSynthetic(const std::string& name, std::uint32_t salt,
                           std::size_t n, std::size_t num_clients = 2) {
  Trace trace;
  trace.name = name;
  std::vector<HintSetId> hints;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    hints.push_back(trace.hints->Intern(
        HintVector{static_cast<ClientId>(c), {c + 1, 100 + salt + c}}));
  }
  trace.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = static_cast<PageId>(
        i % 3 == 0 ? (i * 7919 + salt) % 61 : (i * 104729 + salt) % 509);
    r.client = static_cast<ClientId>(i % num_clients);
    r.hint_set = hints[r.client];
    if (i % 5 == 0) {
      r.op = OpType::kWrite;
      r.write_kind =
          i % 10 == 0 ? WriteKind::kRecovery : WriteKind::kReplacement;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

}  // namespace clic
