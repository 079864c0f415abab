// ARC (Megiddo & Modha, FAST 2003): adaptive replacement cache with two
// resident lists (T1 recency, T2 frequency) and two ghost lists (B1, B2)
// steering the adaptation target p. One of the five policies in every
// figure of the evaluation.
#pragma once

#include "core/policy.h"
#include "policies/common.h"

namespace clic {

class ArcPolicy : public Policy {
 public:
  explicit ArcPolicy(std::size_t cache_pages);

  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

 private:
  enum class Where : std::uint8_t { kT1, kT2, kB1, kB2 };
  struct Payload {
    Where where = Where::kT1;
  };

  bool AccessOne(const Request& r);
  /// The REPLACE subroutine of the paper: demote from T1 or T2 into the
  /// corresponding ghost list according to the target p.
  void Replace(bool hit_in_b2);
  void DropGhost(ListHead& list);

  PageTable table_;
  ListArena<Payload> arena_;
  ListHead t1_, t2_, b1_, b2_;
  std::size_t c_;
  std::size_t p_ = 0;  // target size of T1
};

}  // namespace clic
