// Full 2Q (Johnson & Shasha, VLDB 1994): a short FIFO (A1in) filters
// correlated references, a ghost FIFO (A1out) remembers recently evicted
// pages, and only pages re-referenced out of A1out are promoted into the
// main LRU (Am). Related-work baseline for the policy ablation.
#pragma once

#include "core/policy.h"
#include "policies/common.h"

namespace clic {

class TwoQPolicy : public Policy {
 public:
  explicit TwoQPolicy(std::size_t cache_pages);

  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

 private:
  enum class Where : std::uint8_t { kAm, kA1in, kA1out };
  struct Payload {
    Where where = Where::kAm;
  };

  bool AccessOne(const Request& r);
  void ReclaimFrame();

  PageTable table_;
  ListArena<Payload> arena_;
  ListHead am_, a1in_, a1out_;
  std::size_t cache_pages_;
  std::size_t kin_;
  std::size_t kout_;
};

}  // namespace clic
