// OPT: Belady's clairvoyant upper bound. Uses a next-use oracle
// precomputed from the trace in one backward pass, plus a lazy-deletion
// max-heap over the cached pages' next references. Relies on Simulate()
// passing seq == request index.
#pragma once

#include <vector>

#include "core/policy.h"
#include "policies/common.h"

namespace clic {

class OptPolicy : public Policy {
 public:
  OptPolicy(std::size_t cache_pages, const Trace& trace);

  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

 private:
  static constexpr SeqNum kNever = ~SeqNum{0};

  bool AccessOne(const Request& r, SeqNum seq);

  std::size_t cache_pages_;
  std::vector<SeqNum> next_use_;   // per request index
  std::vector<SeqNum> cur_next_;   // per page: its upcoming reference
  std::vector<std::uint8_t> resident_;  // per page
  std::vector<std::pair<SeqNum, PageId>> heap_;  // lazy max-heap
  std::size_t count_ = 0;
};

}  // namespace clic
