// SpscRing: capacity validation, full/empty boundaries, FIFO order
// across wraparound, and a real single-producer/single-consumer stress
// run — the test the TSan CI job leans on to certify the server's
// lock-free data path (common/spsc_ring.h).
#include "common/spsc_ring.h"

#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace clic {
namespace {

TEST(SpscRingTest, NonPowerOfTwoCapacityThrowsNamingTheValue) {
  for (const std::size_t bad : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{6},
                                std::size_t{96}, std::size_t{100}}) {
    try {
      SpscRing<int> ring(bad);
      FAIL() << "capacity " << bad << " must throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(bad)), std::string::npos)
          << "the error must name the offending capacity: " << what;
      EXPECT_NE(what.find("power of two"), std::string::npos) << what;
    }
  }
  for (const std::size_t good :
       {std::size_t{2}, std::size_t{4}, std::size_t{256}, std::size_t{1024}}) {
    EXPECT_NO_THROW(SpscRing<int>{good});
  }
}

TEST(SpscRingTest, FullAndEmptyBoundariesAtMinimumCapacity) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.Empty());
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out)) << "empty ring must not pop";
  // An empty ring takes exactly `capacity` pushes, and no more.
  EXPECT_TRUE(ring.TryPush(10)) << "empty ring has two free slots";
  EXPECT_TRUE(ring.TryPush(11)) << "empty ring has two free slots";
  EXPECT_FALSE(ring.TryPush(12)) << "full ring must refuse a push";
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(ring.TryPush(12)) << "one pop frees exactly one slot";
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 11);
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 12);
  EXPECT_TRUE(ring.Empty());
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, FifoOrderAcrossManyWraparounds) {
  // Capacity 8, 10'000 values: the cursors wrap the slot array >1000
  // times; any masking or cached-cursor bug breaks the sequence.
  SpscRing<std::uint64_t> ring(8);
  std::uint64_t next_push = 0, next_pop = 0;
  const std::uint64_t total = 10'000;
  while (next_pop < total) {
    while (next_push < total && ring.TryPush(next_push)) ++next_push;
    std::uint64_t out = 0;
    while (ring.TryPop(&out)) {
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.Empty());
  // After >1000 wraparounds the drained ring still takes exactly 8
  // pushes and refuses the 9th, and gives them back in order.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_TRUE(ring.TryPush(total + v)) << "free slot " << v << " of 8";
  }
  EXPECT_FALSE(ring.TryPush(total + 8)) << "a 9th push must not fit";
  for (std::uint64_t v = 0; v < 8; ++v) {
    std::uint64_t out = 0;
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, total + v);
  }
}

// The TSan certification run: one real producer thread against one real
// consumer thread, small capacity so both the full and the empty edge
// (and the cached-cursor refresh on each side) are hit constantly.
// Values are strictly increasing, so the consumer proves FIFO and
// exactly-once delivery, and TSan proves the acquire/release pairs
// cover every slot access.
TEST(SpscRingTest, ConcurrentStressPreservesFifoExactlyOnce) {
  SpscRing<std::uint64_t> ring(16);
  const std::uint64_t total = 200'000;
  std::thread producer([&ring] {
    for (std::uint64_t v = 0; v < total;) {
      if (ring.TryPush(v)) {
        ++v;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected = 0;
  while (expected < total) {
    std::uint64_t out = 0;
    if (ring.TryPop(&out)) {
      ASSERT_EQ(out, expected) << "FIFO order broken under concurrency";
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.Empty());
  EXPECT_EQ(expected, total);
}

TEST(SpscRingTest, PointerPayloadRoundTrips) {
  // The server pushes Batch* through its rings; make sure a pointer
  // payload (trivially copyable, but worth pinning) round-trips intact.
  SpscRing<int*> ring(4);
  int a = 1, b = 2;
  EXPECT_TRUE(ring.TryPush(&a));
  EXPECT_TRUE(ring.TryPush(&b));
  int* out = nullptr;
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, &a);
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, &b);
}

}  // namespace
}  // namespace clic
