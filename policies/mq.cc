#include "policies/mq.h"

#include <algorithm>

namespace clic {

MqPolicy::MqPolicy(std::size_t cache_pages, std::uint64_t lifetime)
    : arena_(2 * std::max<std::size_t>(1, cache_pages)),
      cache_pages_(std::max<std::size_t>(1, cache_pages)),
      lifetime_(lifetime ? lifetime : 8 * std::max<std::size_t>(
                                              1, cache_pages)) {}

int MqPolicy::QueueFor(std::uint32_t freq) {
  int q = 0;
  while (freq > 1 && q < kNumQueues - 1) {
    freq >>= 1;
    ++q;
  }
  return q;
}

void MqPolicy::Adjust(SeqNum now) {
  // Demote at most one expired queue tail per access (the paper's
  // amortized adjustment).
  for (int q = kNumQueues - 1; q > 0; --q) {
    if (queues_[q].empty()) continue;
    const std::uint32_t tail = queues_[q].tail;
    if (arena_[tail].payload.expire < now) {
      arena_.Remove(queues_[q], tail);
      arena_.PushFront(queues_[q - 1], tail);
      arena_[tail].payload.queue = static_cast<std::uint8_t>(q - 1);
      arena_[tail].payload.expire = now + lifetime_;
      return;
    }
  }
}

void MqPolicy::EvictOne() {
  for (int q = 0; q < kNumQueues; ++q) {
    if (queues_[q].empty()) continue;
    const std::uint32_t victim = arena_.PopBack(queues_[q]);
    // Remember the frequency in the ghost history buffer.
    arena_[victim].payload.ghost = 1;
    arena_.PushFront(history_, victim);
    if (history_.size > cache_pages_) {
      const std::uint32_t ghost = arena_.PopBack(history_);
      table_.Clear(arena_[ghost].page);
      arena_.Free(ghost);
    }
    --resident_;
    return;
  }
}

// clic-lint: hot-path
inline bool MqPolicy::AccessOne(const Request& r, SeqNum seq) {
  Adjust(seq);
  const std::uint32_t slot = table_.Get(r.page);
  if (slot != kInvalidIndex && !arena_[slot].payload.ghost) {
    Payload& p = arena_[slot].payload;
    const int old_q = p.queue;
    ++p.freq;
    p.expire = seq + lifetime_;
    const int new_q = QueueFor(p.freq);
    if (new_q == old_q) {
      arena_.MoveToFront(queues_[old_q], slot);
    } else {
      arena_.Remove(queues_[old_q], slot);
      arena_.PushFront(queues_[new_q], slot);
      p.queue = static_cast<std::uint8_t>(new_q);
    }
    return true;
  }
  std::uint32_t freq = 1;
  if (slot != kInvalidIndex) {
    // History hit: resume the remembered frequency.
    freq = arena_[slot].payload.freq + 1;
    arena_.Remove(history_, slot);
    table_.Clear(arena_[slot].page);
    arena_.Free(slot);
  }
  if (resident_ >= cache_pages_) EvictOne();
  const std::uint32_t node = arena_.Alloc(r.page);
  Payload& p = arena_[node].payload;
  p.freq = freq;
  p.expire = seq + lifetime_;
  p.ghost = 0;
  p.queue = static_cast<std::uint8_t>(QueueFor(freq));
  arena_.PushFront(queues_[p.queue], node);
  table_.Set(r.page, node);
  ++resident_;
  return false;
}

// clic-lint: hot-path
void MqPolicy::AccessBatch(const Request* reqs, SeqNum first_seq,
                           std::size_t n, std::uint8_t* hits_out) {
  PipelinedBatch(reqs, first_seq, 0, n, n, hits_out,
                 [this](PageId p) { table_.Prefetch(p); },
                 [this](PageId p) { arena_.Prefetch(table_.Get(p)); },
                 [this](const Request& r, SeqNum seq) {
                   return AccessOne(r, seq);
                 });
}

}  // namespace clic
