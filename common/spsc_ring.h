// Lock-free bounded single-producer/single-consumer ring buffer — the
// data-path primitive of the server's thread-per-core ownership model
// (server/cache_server.h): one ring per (client, consumer) pair, so a
// steady-state submit never takes a mutex between the producing client
// thread and the shard-owning consumer core.
//
// Memory-ordering argument (the whole correctness story, spelled out so
// DESIGN.md can reference it):
//
//   - `tail_` counts pushes, written only by the producer; `head_`
//     counts pops, written only by the consumer. Both are monotonic
//     uint64 cursors masked into the slot array, so full/empty tests
//     are plain subtractions with no wraparound ambiguity (2^64 pushes
//     outlives any run).
//   - The producer writes the slot, then publishes it with a RELEASE
//     store of `tail_`. The consumer's ACQUIRE load of `tail_`
//     therefore happens-after the slot write: a popped value is always
//     fully constructed. Symmetrically, the consumer reads the slot and
//     then frees it with a RELEASE store of `head_`; the producer's
//     ACQUIRE load of `head_` happens-after the slot read, so a slot is
//     never overwritten while the consumer may still touch it.
//   - Each side keeps a plain (non-atomic) cached copy of the peer's
//     cursor and refreshes it only when the ring *looks* full/empty, so
//     the common case is one relaxed self-load plus one cache-hot
//     comparison — no shared-line traffic at all.
//   - `head_` and `tail_` live on separate cache lines (alignas 64) so
//     the producer's and consumer's cursor updates never false-share.
//
// Capacity must be a power of two (masking replaces modulo); the
// constructor throws std::invalid_argument naming the offending value
// otherwise, so a misconfigured topology fails fast at startup instead
// of corrupting indexes at the first wrap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace clic {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity) {
    if (capacity < 2 || (capacity & (capacity - 1)) != 0) {
      throw std::invalid_argument(
          "SpscRing: capacity must be a power of two >= 2, got " +
          std::to_string(capacity));
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when the ring is full.
  // clic-lint: hot-path
  bool TryPush(const T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  // clic-lint: hot-path
  bool TryPop(T* out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    *out = slots_[static_cast<std::size_t>(head) & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side emptiness. Exact for the consumer: the producer can
  /// only add elements, so `true` means everything pushed so far (with
  /// acquire visibility) has been popped.
  bool Empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> slots_;
  /// Consumer cursor (pops) and the producer's cached copy of it.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::uint64_t cached_head_ = 0;  // producer-local
  /// Producer cursor (pushes) and the consumer's cached copy of it.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::uint64_t cached_tail_ = 0;  // consumer-local
};

}  // namespace clic
