// TQ: write-hint-aware two-queue policy in the spirit of Li, Aboulnaga,
// Salem et al. ("Second-Tier Cache Management Using Write Hints",
// FAST 2005) — the strongest pre-CLIC baseline in the paper's figures.
//
// Pages written back because of client buffer replacement were just
// evicted from the client's pool and are likely to be read again, so
// they are kept in a protected queue; recovery writes (checkpoint / WAL)
// are cached at the evictable end. The protected queue holds at most
// half the cache.
#pragma once

#include "core/policy.h"
#include "policies/common.h"

namespace clic {

class TqPolicy : public Policy {
 public:
  explicit TqPolicy(std::size_t cache_pages);

  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

 private:
  enum class Where : std::uint8_t { kProtected, kPlain };
  struct Payload {
    Where where = Where::kPlain;
  };

  bool AccessOne(const Request& r);
  void EvictOne();
  void TrimProtected();

  PageTable table_;
  ListArena<Payload> arena_;
  ListHead protected_, plain_;
  std::size_t protected_cap_;
};

}  // namespace clic
