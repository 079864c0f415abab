// Least-recently-used. The baseline every figure includes, and the
// policy the 10M req/s microbenchmark floor applies to: one flat-vector
// page-table lookup plus one intrusive list splice per access.
#pragma once

#include "core/policy.h"
#include "policies/common.h"

namespace clic {

class LruPolicy : public Policy {
 public:
  explicit LruPolicy(std::size_t cache_pages);

  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

 private:
  bool AccessOne(const Request& r);

  PageTable table_;
  ListArena<NoPayload> arena_;
  ListHead lru_;
};

}  // namespace clic
