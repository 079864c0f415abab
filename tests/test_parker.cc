// The serving path's one wait (server/parker.h): no wake is ever lost,
// and an idle server sleeps instead of polling.
//
// The ping-pong runs with a zero spin budget, so every wait parks and
// every hand-off crosses the park/wake handshake; a wake that slipped
// between a waiter's check and its sleep would leave both threads
// asleep for good (there is no timed backstop). The test thread bounds
// each round trip instead of hanging ctest. The idle tests count the
// process's context switches with getrusage while nothing is sent.
#include "server/parker.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "core/trace.h"
#include "server/cache_server.h"
#include "server/net/net_server.h"
#include "server/net/wire_client.h"

namespace clic::server {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::steady_clock;

/// A stalled hand-off is declared lost after this long. A round trip
/// takes microseconds; the bound only has to survive a loaded CI host.
constexpr auto kRoundTripBound = std::chrono::seconds(2);

/// Watches `progress` from the test thread: returns true once it
/// reaches `target`, false if it stops moving for kRoundTripBound.
bool ProgressesTo(const std::atomic<std::uint64_t>& progress,
                  std::uint64_t target) {
  std::uint64_t seen = progress.load(std::memory_order_acquire);
  auto moved_at = steady_clock::now();
  while (seen < target) {
    std::this_thread::sleep_for(milliseconds(1));
    const std::uint64_t now = progress.load(std::memory_order_acquire);
    if (now != seen) {
      seen = now;
      moved_at = steady_clock::now();
    } else if (steady_clock::now() - moved_at > kRoundTripBound) {
      return false;
    }
  }
  return true;
}

TEST(ParkerTest, ZeroBudgetPingPongNeverLosesAWake) {
  constexpr std::uint64_t kRoundTrips = 100'000;
  // Both threads park on one parker, often at once: a Wake must reach
  // the thread whose turn it made, whichever else is parked.
  Parker parker;
  // Even: ping's move, odd: pong's. Each thread advances it by one.
  std::atomic<std::uint64_t> turn{0};
  std::atomic<bool> abort{false};
  auto player = [&](std::uint64_t parity) {
    for (std::uint64_t mine = parity; mine < 2 * kRoundTrips; mine += 2) {
      parker.Wait(
          [&] {
            return turn.load(std::memory_order_acquire) == mine ||
                   abort.load(std::memory_order_acquire);
          },
          nanoseconds(0));
      if (abort.load(std::memory_order_acquire)) return;
      turn.store(mine + 1, std::memory_order_release);
      parker.Wake();
    }
  };
  std::thread ping(player, 0);
  std::thread pong(player, 1);
  const bool finished = ProgressesTo(turn, 2 * kRoundTrips);
  if (!finished) {
    abort.store(true, std::memory_order_release);
    parker.Wake();
  }
  ping.join();
  pong.join();
  ASSERT_TRUE(finished) << "no progress for 2 s at turn "
                        << turn.load(std::memory_order_acquire)
                        << ": a wake was lost and both threads slept";
  EXPECT_EQ(turn.load(std::memory_order_acquire), 2 * kRoundTrips);
}

// ---- an idle server sleeps ----

/// Voluntary plus involuntary context switches of every thread of this
/// process so far.
std::int64_t ContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw + ru.ru_nivcsw;
}

/// Switches the process makes over a 200 ms window that starts once
/// every spin budget has long run out. The test thread's own sleep
/// costs one.
std::int64_t SwitchesOverIdleWindow() {
  std::this_thread::sleep_for(milliseconds(50));
  const std::int64_t before = ContextSwitches();
  std::this_thread::sleep_for(milliseconds(200));
  return ContextSwitches() - before;
}

// A parked thread makes no switches, so what is left is the test
// thread's own sleep: 1 switch measured on a 4-core VM, for the cache
// server and the network front end alike. When each consumer napped
// 1 ms at a time, the cache server made 350-372 per 200 ms, 70x the
// bound.
constexpr std::int64_t kIdleServerSwitches = 5;

bool SanitizerRuntimeWakesOnItsOwn() {
#if defined(__SANITIZE_THREAD__)
  return true;  // TSan's background thread wakes periodically
#else
  return false;
#endif
}

TEST(IdleServerTest, CacheServerConsumersSleep) {
  if (SanitizerRuntimeWakesOnItsOwn()) {
    GTEST_SKIP() << "the sanitizer runtime's own thread wakes periodically";
  }
  ServerOptions options;
  options.shards = 2;
  options.consumers = 2;
  options.cache_pages = 64;
  CacheServer server(options, /*num_clients=*/1);
  // Serve one batch first, so the consumers idle after real work.
  const Request req{};
  ASSERT_EQ(server.Submit(0, &req, 1), SubmitResult::kApplied);
  const std::int64_t switches = SwitchesOverIdleWindow();
  server.Finish(0);
  server.Shutdown();
  EXPECT_LE(switches, kIdleServerSwitches)
      << "an idle 2-consumer server woke up " << switches
      << " times in 200 ms";
}

// The network front end adds an acceptor and an io thread that, with
// no read or write deadline, block in epoll_wait until an event or a
// Drain(): 1 switch measured on a 4-core VM. While the acceptor woke
// every 50 ms to check for Drain(), the same server made 4-5.

TEST(IdleServerTest, NetServerWithAnIdleConnectionSleeps) {
  if (SanitizerRuntimeWakesOnItsOwn()) {
    GTEST_SKIP() << "the sanitizer runtime's own thread wakes periodically";
  }
  net::NetServerOptions options;
  options.conn_limit = 2;
  options.server.shards = 2;
  options.server.consumers = 2;
  options.server.cache_pages = 64;
  net::NetServer server(options);
  net::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  const Request req{};
  ASSERT_EQ(client.Call(&req, 1), net::kWireApplied) << client.error();
  const std::int64_t switches = SwitchesOverIdleWindow();
  client.Close();
  server.Drain();
  EXPECT_LE(switches, kIdleServerSwitches)
      << "an idle NetServer with one open connection woke up " << switches
      << " times in 200 ms";
}

}  // namespace
}  // namespace clic::server
