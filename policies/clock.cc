#include "policies/clock.h"

#include <algorithm>

namespace clic {

ClockPolicy::ClockPolicy(std::size_t cache_pages)
    : frames_(std::max<std::size_t>(1, cache_pages)) {}

// clic-lint: hot-path
inline bool ClockPolicy::AccessOne(const Request& r) {
  const std::uint32_t slot = table_.Get(r.page);
  if (slot != kInvalidIndex) {
    frames_[slot].referenced = 1;
    return true;
  }
  std::size_t target;
  if (resident_ < frames_.size()) {
    target = resident_++;
  } else {
    // Sweep the hand until a frame with a clear reference bit turns up.
    while (frames_[hand_].referenced) {
      frames_[hand_].referenced = 0;
      hand_ = hand_ + 1 == frames_.size() ? 0 : hand_ + 1;
    }
    target = hand_;
    hand_ = hand_ + 1 == frames_.size() ? 0 : hand_ + 1;
    table_.Clear(frames_[target].page);
  }
  frames_[target].page = r.page;
  frames_[target].referenced = 1;
  table_.Set(r.page, static_cast<std::uint32_t>(target));
  return false;
}

// clic-lint: hot-path
void ClockPolicy::AccessBatch(const Request* reqs, SeqNum first_seq,
                              std::size_t n, std::uint8_t* hits_out) {
  PipelinedBatch(reqs, first_seq, 0, n, n, hits_out,
                 [this](PageId p) { table_.Prefetch(p); },
                 [this](PageId p) {
                   const std::uint32_t frame = table_.Get(p);
                   if (frame < frames_.size()) {
                     __builtin_prefetch(&frames_[frame], 1, 1);
                   }
                 },
                 [this](const Request& r, SeqNum) { return AccessOne(r); });
}

}  // namespace clic
