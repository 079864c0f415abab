// CLOCK (second-chance): a ring of frames with reference bits, the
// classic low-overhead LRU approximation (related-work baseline).
#pragma once

#include <vector>

#include "core/policy.h"
#include "policies/common.h"

namespace clic {

class ClockPolicy : public Policy {
 public:
  explicit ClockPolicy(std::size_t cache_pages);

  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

 private:
  bool AccessOne(const Request& r);

  struct Frame {
    PageId page = 0;
    std::uint8_t referenced = 0;
  };

  PageTable table_;
  std::vector<Frame> frames_;
  std::size_t hand_ = 0;
  std::size_t resident_ = 0;
};

}  // namespace clic
