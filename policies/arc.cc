#include "policies/arc.h"

#include <algorithm>

namespace clic {

ArcPolicy::ArcPolicy(std::size_t cache_pages)
    : arena_(2 * std::max<std::size_t>(1, cache_pages)),
      c_(std::max<std::size_t>(1, cache_pages)) {}

void ArcPolicy::Replace(bool hit_in_b2) {
  if (!t1_.empty() &&
      (t1_.size > p_ || (hit_in_b2 && t1_.size == p_))) {
    const std::uint32_t victim = arena_.PopBack(t1_);
    arena_[victim].payload.where = Where::kB1;
    arena_.PushFront(b1_, victim);
  } else {
    const std::uint32_t victim = arena_.PopBack(t2_);
    arena_[victim].payload.where = Where::kB2;
    arena_.PushFront(b2_, victim);
  }
}

void ArcPolicy::DropGhost(ListHead& list) {
  const std::uint32_t ghost = arena_.PopBack(list);
  table_.Clear(arena_[ghost].page);
  arena_.Free(ghost);
}

// clic-lint: hot-path
inline bool ArcPolicy::AccessOne(const Request& r) {
  const std::uint32_t slot = table_.Get(r.page);
  if (slot != kInvalidIndex) {
    switch (arena_[slot].payload.where) {
      case Where::kT1:
        arena_.Remove(t1_, slot);
        arena_[slot].payload.where = Where::kT2;
        arena_.PushFront(t2_, slot);
        return true;
      case Where::kT2:
        arena_.MoveToFront(t2_, slot);
        return true;
      case Where::kB1: {
        const std::size_t delta =
            std::max<std::size_t>(1, b2_.size / std::max<std::uint32_t>(
                                          1, b1_.size));
        p_ = std::min(c_, p_ + delta);
        Replace(/*hit_in_b2=*/false);
        arena_.Remove(b1_, slot);
        arena_[slot].payload.where = Where::kT2;
        arena_.PushFront(t2_, slot);
        return false;
      }
      case Where::kB2: {
        const std::size_t delta =
            std::max<std::size_t>(1, b1_.size / std::max<std::uint32_t>(
                                          1, b2_.size));
        p_ = p_ > delta ? p_ - delta : 0;
        Replace(/*hit_in_b2=*/true);
        arena_.Remove(b2_, slot);
        arena_[slot].payload.where = Where::kT2;
        arena_.PushFront(t2_, slot);
        return false;
      }
    }
  }
  // Complete miss (case IV of the paper).
  const std::size_t l1 = t1_.size + b1_.size;
  if (l1 == c_) {
    if (t1_.size < c_) {
      DropGhost(b1_);
      Replace(/*hit_in_b2=*/false);
    } else {
      // B1 empty and T1 full: evict the T1 LRU page outright.
      const std::uint32_t victim = arena_.PopBack(t1_);
      table_.Clear(arena_[victim].page);
      arena_.Free(victim);
    }
  } else if (l1 < c_ && l1 + t2_.size + b2_.size >= c_) {
    if (l1 + t2_.size + b2_.size == 2 * c_) DropGhost(b2_);
    Replace(/*hit_in_b2=*/false);
  }
  const std::uint32_t node = arena_.Alloc(r.page);
  arena_[node].payload.where = Where::kT1;
  arena_.PushFront(t1_, node);
  table_.Set(r.page, node);
  return false;
}

// clic-lint: hot-path
void ArcPolicy::AccessBatch(const Request* reqs, SeqNum first_seq,
                            std::size_t n, std::uint8_t* hits_out) {
  PipelinedBatch(reqs, first_seq, 0, n, n, hits_out,
                 [this](PageId p) { table_.Prefetch(p); },
                 [this](PageId p) { arena_.Prefetch(table_.Get(p)); },
                 [this](const Request& r, SeqNum) { return AccessOne(r); });
}

}  // namespace clic
