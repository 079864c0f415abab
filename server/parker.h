// The serving path's one wait: spin for a time budget, then park
// exactly. Every thread that waits on the serving path — a producer
// awaiting its batch (CacheServer::Await), an idle consumer, and the
// network io loop's poll — spins for kSpinBudget after its last work
// before it sleeps, so traffic that arrives more often than once per
// budget never pays a kernel wake-up. The io loop polls epoll instead
// of calling Parker (its sleep is epoll_wait), but uses the same
// budget.
//
// Park/wake handshake (a Dekker-style pair, so no wake is ever lost
// and no timed backstop is needed):
//
//   waiter (Wait, after the spin)      waker (Wake, after publishing)
//   lock mu                            publish the state ready() reads
//   parked += 1                        seq_cst fence
//   seq_cst fence                      if parked == 0: done
//   while !ready(): cv.wait(mu)        lock + unlock mu, notify_all
//   parked -= 1
//
// The two fences forbid the store-buffer outcome in which the waiter
// misses the state *and* the waker misses `parked`. So either the
// waiter's re-check under the lock sees the state and it never sleeps,
// or the waker sees it parked. A waker that sees it parked takes the
// mutex, which it can only get once the waiter is inside cv.wait (or
// gone), so its notify reaches the sleeper. A wake with nobody parked
// costs one fence and one relaxed load: no mutex, no syscall.
//
// The mutex and CV here are the only ones on the serving path, and they
// are touched only by a waiter whose budget ran out and by a waker that
// found it parked (see DESIGN.md, "Data path vs control path").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/thread_annotations.h"

namespace clic::server {

/// How long a serving-path waiter spins (yielding the core on every
/// round) before it sleeps. It must outlast the gap between frames of a
/// steady stream (33 µs and 53 µs in the wire benchmark workloads), or
/// every frame pays kernel wake-ups: on a 4-core VM, budgets of 50 µs
/// and 100 µs sometimes sent a wire workload into a growing backlog with
/// a p50 of 0.2-42 ms (4 of 6 and 4 of 12 runs), while 200 µs and
/// 350 µs never did (0 of 18, 0 of 16). An idle server pays it once,
/// then sleeps until work, Finish() or Stop().
inline constexpr std::chrono::microseconds kSpinBudget{200};

/// One park/wake point. Any number of threads may Wait on it at once,
/// each with its own predicate; Wake re-checks them all.
class Parker {
 public:
  /// Returns once `ready()` is true. Spins on it, yielding, until
  /// `spin` has passed, then parks until a Wake() that follows the state
  /// change. `ready` must read only state that wakers publish before
  /// they call Wake(). `spin` is kSpinBudget on the serving path; a
  /// zero budget parks at once (the lost-wakeup test uses it).
  template <typename Ready>
  void Wait(Ready ready, std::chrono::nanoseconds spin = kSpinBudget) {
    if (ready()) return;
    const auto until = std::chrono::steady_clock::now() + spin;
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
      if (ready()) return;
    }
    Park(ready);
  }

  /// Wakes every parked waiter so it re-checks its predicate. Call it
  /// after publishing the state that may make a predicate true.
  void Wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) == 0) return;
    // clic-lint: begin-allow(no-mutex-data-path) reason=wakes a waiter that spent its spin budget and parked; skipped unless one is parked
    { MutexLock lock(mu_); }
    cv_.notify_all();
    // clic-lint: end-allow(no-mutex-data-path)
  }

 private:
  // clic-lint: begin-allow(no-mutex-data-path) reason=the park half: a waiter whose spin budget ran out sleeps here, re-checking its predicate under the lock
  Mutex mu_;
  std::condition_variable cv_;

  template <typename Ready>
  void Park(Ready& ready) {
    std::unique_lock<std::mutex> lock(mu_.native());
    parked_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    cv_.wait(lock, ready);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
  // clic-lint: end-allow(no-mutex-data-path)

  /// Waiters inside Park. Written under mu_; read by Wake after its
  /// fence.
  std::atomic<std::uint32_t> parked_{0};
};

}  // namespace clic::server
