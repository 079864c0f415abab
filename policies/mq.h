// MQ (Zhou, Philbin, Li, USENIX 2001): multi-queue replacement designed
// for second-tier (storage server) caches. Pages climb log2(frequency)
// queues, expire back down after a lifetime without references, and a
// ghost history buffer preserves frequency across evictions.
#pragma once

#include "core/policy.h"
#include "policies/common.h"

namespace clic {

class MqPolicy : public Policy {
 public:
  static constexpr int kNumQueues = 8;

  /// lifetime == 0 picks the default (8 * cache_pages), a static stand-in
  /// for the paper's peak-temporal-distance estimate.
  explicit MqPolicy(std::size_t cache_pages, std::uint64_t lifetime = 0);

  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

 private:
  bool AccessOne(const Request& r, SeqNum seq);

  struct Payload {
    std::uint32_t freq = 0;
    std::uint64_t expire = 0;
    std::uint8_t ghost = 0;
    std::uint8_t queue = 0;  // actual queue (can lag QueueFor(freq)
                             // after a lifetime demotion)
  };

  static int QueueFor(std::uint32_t freq);
  void Adjust(SeqNum now);
  void EvictOne();

  PageTable table_;
  ListArena<Payload> arena_;
  ListHead queues_[kNumQueues];
  ListHead history_;
  std::size_t cache_pages_;
  std::size_t resident_ = 0;
  std::uint64_t lifetime_;
};

}  // namespace clic
