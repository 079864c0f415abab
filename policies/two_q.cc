#include "policies/two_q.h"

#include <algorithm>

namespace clic {

TwoQPolicy::TwoQPolicy(std::size_t cache_pages)
    : arena_(std::max<std::size_t>(1, cache_pages) +
             std::max<std::size_t>(1, cache_pages / 2)),
      cache_pages_(std::max<std::size_t>(1, cache_pages)),
      kin_(std::max<std::size_t>(1, cache_pages / 4)),
      kout_(std::max<std::size_t>(1, cache_pages / 2)) {}

void TwoQPolicy::ReclaimFrame() {
  if (a1in_.size > kin_ || am_.empty()) {
    // Evict the A1in tail and remember it in the A1out ghost queue.
    const std::uint32_t victim = arena_.PopBack(a1in_);
    arena_[victim].payload.where = Where::kA1out;
    arena_.PushFront(a1out_, victim);
    if (a1out_.size > kout_) {
      const std::uint32_t ghost = arena_.PopBack(a1out_);
      table_.Clear(arena_[ghost].page);
      arena_.Free(ghost);
    }
  } else {
    // Evict the Am tail outright (2Q does not ghost Am evictions).
    const std::uint32_t victim = arena_.PopBack(am_);
    table_.Clear(arena_[victim].page);
    arena_.Free(victim);
  }
}

// clic-lint: hot-path
inline bool TwoQPolicy::AccessOne(const Request& r) {
  const std::uint32_t slot = table_.Get(r.page);
  if (slot != kInvalidIndex) {
    switch (arena_[slot].payload.where) {
      case Where::kAm:
        arena_.MoveToFront(am_, slot);
        return true;
      case Where::kA1in:
        // 2Q leaves A1in pages in FIFO order on re-reference.
        return true;
      case Where::kA1out:
        // Ghost hit: the page proved its re-reference, promote into Am.
        arena_.Remove(a1out_, slot);
        if (am_.size + a1in_.size >= cache_pages_) ReclaimFrame();
        arena_[slot].payload.where = Where::kAm;
        arena_.PushFront(am_, slot);
        return false;
    }
  }
  if (am_.size + a1in_.size >= cache_pages_) ReclaimFrame();
  const std::uint32_t node = arena_.Alloc(r.page);
  arena_[node].payload.where = Where::kA1in;
  arena_.PushFront(a1in_, node);
  table_.Set(r.page, node);
  return false;
}

// clic-lint: hot-path
void TwoQPolicy::AccessBatch(const Request* reqs, SeqNum first_seq,
                             std::size_t n, std::uint8_t* hits_out) {
  PipelinedBatch(reqs, first_seq, 0, n, n, hits_out,
                 [this](PageId p) { table_.Prefetch(p); },
                 [this](PageId p) { arena_.Prefetch(table_.Get(p)); },
                 [this](const Request& r, SeqNum) { return AccessOne(r); });
}

}  // namespace clic
