#include "policies/tq.h"

#include <algorithm>

namespace clic {

TqPolicy::TqPolicy(std::size_t cache_pages)
    : arena_(std::max<std::size_t>(1, cache_pages)),
      protected_cap_(arena_.capacity() / 2) {}

void TqPolicy::EvictOne() {
  ListHead& from = plain_.empty() ? protected_ : plain_;
  const std::uint32_t victim = arena_.PopBack(from);
  table_.Clear(arena_[victim].page);
  arena_.Free(victim);
}

void TqPolicy::TrimProtected() {
  while (protected_.size > protected_cap_) {
    const std::uint32_t demoted = arena_.PopBack(protected_);
    arena_[demoted].payload.where = Where::kPlain;
    arena_.PushFront(plain_, demoted);
  }
}

// clic-lint: hot-path
inline bool TqPolicy::AccessOne(const Request& r) {
  const bool replacement_write =
      r.op == OpType::kWrite && r.write_kind == WriteKind::kReplacement;
  const std::uint32_t slot = table_.Get(r.page);
  if (slot != kInvalidIndex) {
    Payload& p = arena_[slot].payload;
    if (replacement_write && p.where == Where::kPlain) {
      // The client just evicted this page: promote it.
      arena_.Remove(plain_, slot);
      p.where = Where::kProtected;
      arena_.PushFront(protected_, slot);
      TrimProtected();
    } else if (p.where == Where::kProtected) {
      arena_.MoveToFront(protected_, slot);
    } else {
      arena_.MoveToFront(plain_, slot);
    }
    return true;
  }
  if (arena_.Full()) EvictOne();
  const std::uint32_t node = arena_.Alloc(r.page);
  table_.Set(r.page, node);
  if (replacement_write) {
    arena_[node].payload.where = Where::kProtected;
    arena_.PushFront(protected_, node);
    TrimProtected();
  } else if (r.op == OpType::kWrite &&
             r.write_kind == WriteKind::kRecovery) {
    // Recovery writes are unlikely to be re-read: park at the victim end.
    arena_[node].payload.where = Where::kPlain;
    arena_.PushBack(plain_, node);
  } else {
    arena_[node].payload.where = Where::kPlain;
    arena_.PushFront(plain_, node);
  }
  return false;
}

// clic-lint: hot-path
bool TqPolicy::Access(const Request& r, SeqNum /*seq*/) {
  return AccessOne(r);
}

// clic-lint: hot-path
void TqPolicy::AccessBatch(const Request* reqs, SeqNum /*first_seq*/,
                           std::size_t n, std::uint8_t* hits_out) {
  const std::size_t main =
      n > kBatchPrefetchDistance ? n - kBatchPrefetchDistance : 0;
  std::size_t i = 0;
  for (; i < main; ++i) {
    table_.Prefetch(reqs[i + kBatchPrefetchDistance].page);
    const std::uint32_t ahead = table_.Get(reqs[i + kBatchNodeDistance].page);
    if (ahead != kInvalidIndex) arena_.Prefetch(ahead);
    hits_out[i] = AccessOne(reqs[i]);
  }
  for (; i < n; ++i) {
    hits_out[i] = AccessOne(reqs[i]);
  }
}

}  // namespace clic
