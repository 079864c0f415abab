// Shared building blocks for the replacement policies: the flat
// PageTable (core/page_table.h) plus an intrusive doubly-linked-list
// arena. All list nodes live in one preallocated arena, so a policy
// performs zero heap allocations per request after construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/page_table.h"
#include "core/trace.h"

namespace clic {

/// Every policy's AccessBatch runs PipelinedBatch below, which
/// software-pipelines the lookups: while processing request i it
/// prefetches the page-table slot of request i + kBatchPrefetchDistance
/// and — once that slot is warm — reads it at i + kBatchNodeDistance to
/// prefetch the arena node / cache slot it points at. The early read is
/// advisory only (a request in between may remap the page; the
/// prefetched line is then merely useless), so decisions are
/// unaffected. Distances: far enough to cover a memory load at a few ns
/// per request, small enough that lines stay resident.
inline constexpr std::size_t kBatchPrefetchDistance = 12;
inline constexpr std::size_t kBatchNodeDistance = 4;

/// The one batch loop: applies requests [begin, end) of the batch
/// reqs[0, n), request i with seq first_seq + i, and writes each
/// decision to hits_out[i]. A policy passes only its steps:
/// `warm_far(page)` and `warm_near(page)` prefetch the state of a
/// request that far and that near ahead, and `step(request, seq)`
/// applies one request and returns whether it hit. Each lookahead is
/// bounded by the whole batch, not the span, so a span that ends where
/// CLIC must close a window still warms the requests after it. A batch
/// of one warms nothing, so Policy::Access decides through this same
/// loop.
// clic-lint: hot-path
template <typename WarmFar, typename WarmNear, typename Step>
inline void PipelinedBatch(const Request* reqs, SeqNum first_seq,
                           std::size_t begin, std::size_t end, std::size_t n,
                           std::uint8_t* hits_out, WarmFar warm_far,
                           WarmNear warm_near, Step step) {
  for (std::size_t i = begin; i < end; ++i) {
    if (i + kBatchPrefetchDistance < n) {
      warm_far(reqs[i + kBatchPrefetchDistance].page);
    }
    if (i + kBatchNodeDistance < n) {
      warm_near(reqs[i + kBatchNodeDistance].page);
    }
    hits_out[i] = step(reqs[i], first_seq + i);
  }
}

/// Intrusive doubly-linked lists over a fixed arena of nodes. Each node
/// carries the page it caches plus user payload defined by the policy.
/// Lists are identified by ListHead values owned by the policy.
struct ListHead {
  std::uint32_t head = kInvalidIndex;  // front (e.g. MRU)
  std::uint32_t tail = kInvalidIndex;  // back (e.g. LRU victim end)
  std::uint32_t size = 0;

  bool empty() const { return head == kInvalidIndex; }
};

template <typename Payload>
class ListArena {
 public:
  struct Node {
    PageId page = 0;
    std::uint32_t prev = kInvalidIndex;
    std::uint32_t next = kInvalidIndex;
    Payload payload{};
  };

  explicit ListArena(std::size_t capacity) {
    nodes_.resize(capacity);
    free_.reserve(capacity);
    for (std::size_t i = capacity; i-- > 0;) {
      free_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  bool Full() const { return free_.empty(); }
  std::size_t capacity() const { return nodes_.size(); }

  Node& operator[](std::uint32_t i) { return nodes_[i]; }
  const Node& operator[](std::uint32_t i) const { return nodes_[i]; }

  /// Warms the cache line of node `i` (see kBatchNodeDistance); an
  /// index past the arena, such as kInvalidIndex, warms nothing.
  void Prefetch(std::uint32_t i) const {
    if (i < nodes_.size()) __builtin_prefetch(&nodes_[i], 0, 1);
  }

  std::uint32_t Alloc(PageId page) {
    const std::uint32_t i = free_.back();
    free_.pop_back();
    nodes_[i].page = page;
    nodes_[i].prev = nodes_[i].next = kInvalidIndex;
    return i;
  }

  void Free(std::uint32_t i) { free_.push_back(i); }

  void PushFront(ListHead& list, std::uint32_t i) {
    nodes_[i].prev = kInvalidIndex;
    nodes_[i].next = list.head;
    if (list.head != kInvalidIndex) nodes_[list.head].prev = i;
    list.head = i;
    if (list.tail == kInvalidIndex) list.tail = i;
    ++list.size;
  }

  void PushBack(ListHead& list, std::uint32_t i) {
    nodes_[i].next = kInvalidIndex;
    nodes_[i].prev = list.tail;
    if (list.tail != kInvalidIndex) nodes_[list.tail].next = i;
    list.tail = i;
    if (list.head == kInvalidIndex) list.head = i;
    ++list.size;
  }

  void Remove(ListHead& list, std::uint32_t i) {
    if (nodes_[i].prev != kInvalidIndex) {
      nodes_[nodes_[i].prev].next = nodes_[i].next;
    } else {
      list.head = nodes_[i].next;
    }
    if (nodes_[i].next != kInvalidIndex) {
      nodes_[nodes_[i].next].prev = nodes_[i].prev;
    } else {
      list.tail = nodes_[i].prev;
    }
    nodes_[i].prev = nodes_[i].next = kInvalidIndex;
    --list.size;
  }

  void MoveToFront(ListHead& list, std::uint32_t i) {
    if (list.head == i) return;
    Remove(list, i);
    PushFront(list, i);
  }

  /// Pops the back (victim end) of the list; list must be non-empty.
  std::uint32_t PopBack(ListHead& list) {
    const std::uint32_t i = list.tail;
    Remove(list, i);
    return i;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
};

struct NoPayload {};

}  // namespace clic
