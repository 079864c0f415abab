#include "policies/lru.h"

#include <algorithm>

namespace clic {

LruPolicy::LruPolicy(std::size_t cache_pages)
    : arena_(std::max<std::size_t>(1, cache_pages)) {}

// clic-lint: hot-path
inline bool LruPolicy::AccessOne(const Request& r) {
  const std::uint32_t slot = table_.Get(r.page);
  if (slot != kInvalidIndex) {
    arena_.MoveToFront(lru_, slot);
    return true;
  }
  if (arena_.Full()) {
    const std::uint32_t victim = arena_.PopBack(lru_);
    table_.Clear(arena_[victim].page);
    arena_.Free(victim);
  }
  const std::uint32_t node = arena_.Alloc(r.page);
  arena_.PushFront(lru_, node);
  table_.Set(r.page, node);
  return false;
}

// clic-lint: hot-path
void LruPolicy::AccessBatch(const Request* reqs, SeqNum first_seq,
                            std::size_t n, std::uint8_t* hits_out) {
  PipelinedBatch(reqs, first_seq, 0, n, n, hits_out,
                 [this](PageId p) { table_.Prefetch(p); },
                 [this](PageId p) { arena_.Prefetch(table_.Get(p)); },
                 [this](const Request& r, SeqNum) { return AccessOne(r); });
}

}  // namespace clic
