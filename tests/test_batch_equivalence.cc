// Batch == scalar equivalence suite: the AccessBatch contract in
// core/policy.h promises that a batched replay makes bit-identical
// per-request hit/miss decisions to sequential Access() calls (each a
// batch of one, the scalar reference here), for every policy, any
// batch size, and any window phase. These tests pin that for the whole
// zoo over a randomized trace, for CLIC across its option space
// (trackers, decay, outqueue, generalization — the incremental window
// close has to reproduce the eager analysis exactly), and for the
// cases that are easy to get wrong: a CLIC window boundary falling in
// the middle of a batch. CLIC's window clock needs the gap-free seq line
// the contract asks for, and debug builds assert it. The same contract
// is checked at bench scale with the paper's options, next to the
// throughput floors of the batched Simulate() loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/clic.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"

namespace clic {
namespace {

Trace RandomTrace(std::uint64_t seed, std::size_t n) {
  Trace trace;
  trace.name = "batch_equivalence";
  Rng rng(seed);
  ZipfGenerator zipf(300, 0.8);
  std::vector<HintSetId> hints;
  for (std::uint32_t i = 0; i < 8; ++i) {
    // Two informative positions plus one noise position so the
    // generalization tree has something to split on.
    hints.push_back(trace.hints->Intern(HintVector{
        static_cast<ClientId>(i % 3), {i % 2, i / 2, 7 - i}}));
  }
  trace.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = zipf(rng);
    r.hint_set = hints[r.page % hints.size()];
    r.client = static_cast<ClientId>(r.page % 3);
    if (rng.Chance(0.3)) {
      r.op = OpType::kWrite;
      r.write_kind =
          rng.Chance(0.5) ? WriteKind::kReplacement : WriteKind::kRecovery;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

/// The micro trace shape: `n` Zipf(`zipf_z`) requests over `pages`
/// pages, 30% writes (half replacement, half recovery), and 64 hint
/// sets chosen by page. Requests are drawn in order from one seeded
/// stream, so a shorter `n` is a prefix of a longer one.
Trace MakeMicroTrace(std::uint64_t pages, double zipf_z, std::size_t n) {
  Trace trace;
  trace.name = "micro";
  Rng rng(0xBEEF);
  ZipfGenerator zipf(pages, zipf_z);
  std::vector<HintSetId> hints;
  for (std::uint32_t i = 0; i < 64; ++i) {
    hints.push_back(trace.hints->Intern(HintVector{0, {i}}));
  }
  trace.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = zipf(rng);
    r.hint_set = hints[r.page % hints.size()];
    if (rng.Chance(0.3)) {
      r.op = OpType::kWrite;
      r.write_kind =
          rng.Chance(0.5) ? WriteKind::kReplacement : WriteKind::kRecovery;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

/// 1M requests over 100k pages (Zipf 0.9), replayed at 16,384 cache
/// pages: the shape the throughput floors are stated for.
const Trace& MicroTrace() {
  static const Trace trace = MakeMicroTrace(100'000, 0.9, 1'000'000);
  return trace;
}
constexpr std::size_t kMicroCachePages = 16'384;

std::vector<std::uint8_t> ScalarDecisions(Policy& policy,
                                          const Trace& trace) {
  std::vector<std::uint8_t> out;
  out.reserve(trace.size());
  SeqNum seq = 0;
  for (const Request& r : trace.requests) {
    out.push_back(policy.Access(r, seq++) ? 1 : 0);
  }
  return out;
}

/// Replays via AccessBatch using the sizes in `pattern` round-robin
/// (a single-element pattern is a fixed batch size), so both uneven
/// tails and seq continuity across differently-sized batches are
/// exercised.
std::vector<std::uint8_t> BatchedDecisions(
    Policy& policy, const Trace& trace,
    const std::vector<std::size_t>& pattern) {
  std::vector<std::uint8_t> out(trace.size());
  std::size_t pos = 0, which = 0;
  while (pos < trace.size()) {
    std::size_t want = pattern[which++ % pattern.size()];
    if (want == 0) want = 1;
    const std::size_t count = std::min(want, trace.size() - pos);
    policy.AccessBatch(trace.requests.data() + pos, pos, count,
                       out.data() + pos);
    pos += count;
  }
  return out;
}

/// First index where the two decision vectors differ, or -1.
long FirstDivergence(const std::vector<std::uint8_t>& a,
                     const std::vector<std::uint8_t>& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(std::min(a.size(),
                                                                b.size()));
}

ClicOptions SmallWindowOptions() {
  ClicOptions options;
  options.window = 1'000;  // several windows inside the 5k-request trace
  return options;
}

TEST(BatchEquivalenceTest, EveryPolicyEveryBatchSize) {
  const Trace trace = RandomTrace(0xA11CE, 5'000);
  const std::size_t n = trace.size();
  // 1 and 7: degenerate and prime; 256: typical; n: one whole-trace
  // batch; 999: leaves an odd tail (5000 % 999 = 5); 4096: the
  // bench-scale batch below, with a 904-request tail.
  const std::vector<std::size_t> batch_sizes = {1, 7, 256, n, 999, 4096};
  for (PolicyKind kind : AllPolicies()) {
    auto scalar_policy =
        MakePolicy(kind, 64, &trace, SmallWindowOptions());
    const std::vector<std::uint8_t> expected =
        ScalarDecisions(*scalar_policy, trace);
    for (std::size_t batch : batch_sizes) {
      auto batched_policy =
          MakePolicy(kind, 64, &trace, SmallWindowOptions());
      const std::vector<std::uint8_t> got =
          BatchedDecisions(*batched_policy, trace, {batch});
      EXPECT_EQ(FirstDivergence(expected, got), -1)
          << PolicyName(kind) << " diverged at request "
          << FirstDivergence(expected, got) << " with batch size " << batch;
    }
  }
}

TEST(BatchEquivalenceTest, MixedBatchSizesKeepSeqContinuity) {
  const Trace trace = RandomTrace(0xB0B, 5'000);
  for (PolicyKind kind : AllPolicies()) {
    auto scalar_policy =
        MakePolicy(kind, 64, &trace, SmallWindowOptions());
    const std::vector<std::uint8_t> expected =
        ScalarDecisions(*scalar_policy, trace);
    auto batched_policy =
        MakePolicy(kind, 64, &trace, SmallWindowOptions());
    const std::vector<std::uint8_t> got =
        BatchedDecisions(*batched_policy, trace, {1, 7, 33, 256});
    EXPECT_EQ(FirstDivergence(expected, got), -1) << PolicyName(kind);
  }
}

TEST(BatchEquivalenceTest, ClicAcrossOptionSpace) {
  const Trace trace = RandomTrace(0xC11C, 6'000);
  std::vector<ClicOptions> configs;
  {
    ClicOptions o = SmallWindowOptions();
    configs.push_back(o);  // exact tracker, full history
    o.decay = 0.5;
    configs.push_back(o);  // lazy decay folding
    o.decay = 0.0;
    configs.push_back(o);  // history discarded each window
    o = SmallWindowOptions();
    o.outqueue_per_page = 0.0;
    configs.push_back(o);  // no outqueue
    o = SmallWindowOptions();
    o.tracker = TrackerKind::kSpaceSaving;
    o.top_k = 3;
    configs.push_back(o);  // untouched hints must lose eligibility
    o.tracker = TrackerKind::kLossyCounting;
    configs.push_back(o);
    o = SmallWindowOptions();
    o.generalize = true;
    o.hint_space = trace.hints;
    configs.push_back(o);  // decision-tree pooling over the candidates
    o.tracker = TrackerKind::kSpaceSaving;
    o.top_k = 2;
    configs.push_back(o);  // generalize + class-level top-k
  }
  for (std::size_t c = 0; c < configs.size(); ++c) {
    ClicPolicy scalar_policy(48, configs[c]);
    const std::vector<std::uint8_t> expected =
        ScalarDecisions(scalar_policy, trace);
    for (std::size_t batch : {std::size_t{7}, std::size_t{256}}) {
      ClicPolicy batched_policy(48, configs[c]);
      const std::vector<std::uint8_t> got =
          BatchedDecisions(batched_policy, trace, {batch});
      EXPECT_EQ(FirstDivergence(expected, got), -1)
          << "CLIC config " << c << " diverged at request "
          << FirstDivergence(expected, got) << " with batch size " << batch;
    }
    EXPECT_GT(scalar_policy.windows_completed(), 2u)
        << "config " << c << " never exercised a window close";
  }
}

TEST(BatchEquivalenceTest, ClicWindowBoundaryMidBatch) {
  // Window 100 with batch 64: the second batch spans seqs [64, 128),
  // so the first window close (at seq 100) lands mid-batch, and later
  // closes land at every possible phase (100 and 64 are not multiples).
  const Trace trace = RandomTrace(0xD00D, 4'000);
  ClicOptions options;
  options.window = 100;
  ClicPolicy scalar_policy(32, options);
  const std::vector<std::uint8_t> expected =
      ScalarDecisions(scalar_policy, trace);
  ClicPolicy batched_policy(32, options);
  const std::vector<std::uint8_t> got =
      BatchedDecisions(batched_policy, trace, {64});
  EXPECT_EQ(FirstDivergence(expected, got), -1)
      << "diverged at request " << FirstDivergence(expected, got);
  EXPECT_EQ(batched_policy.windows_completed(),
            scalar_policy.windows_completed());
  EXPECT_GE(batched_policy.windows_completed(), 39u);

  // A hand-built close whose effect the random trace need not show:
  // the first request of window 2 is a miss whose victim depends on
  // the ranks window 1's close assigns. Window 1 (seqs 0-5) re-
  // references hint set A's pages 1 and 2 and never B's pages 3 and 4,
  // so the close at seq 6 ranks A above B. B's miss on page 5 at seq 6
  // must evict B's LRU page 3, not the global LRU page 1, and A's page
  // 1 hits at seq 7. Serving seq 6 before the close (a span one request
  // too long) would evict page 1 and miss at seq 7.
  Trace small;
  const HintSetId a = small.hints->Intern(HintVector{0, {1}});
  const HintSetId b = small.hints->Intern(HintVector{0, {2}});
  const std::pair<PageId, HintSetId> accesses[] = {
      {1, a}, {1, a}, {2, a}, {2, a}, {3, b}, {4, b}, {5, b}, {1, a}};
  for (const auto& [page, hint] : accesses) {
    Request r;
    r.page = page;
    r.hint_set = hint;
    small.requests.push_back(r);
  }
  ClicOptions tight;
  tight.window = 6;
  tight.outqueue_per_page = 0.0;
  tight.charge_metadata = false;
  const std::vector<std::uint8_t> want = {0, 1, 0, 1, 0, 0, 0, 1};
  ClicPolicy scalar_small(4, tight);
  EXPECT_EQ(ScalarDecisions(scalar_small, small), want);
  ClicPolicy batched_small(4, tight);
  EXPECT_EQ(BatchedDecisions(batched_small, small, {8}), want);
}

// Windows are measured in requests, so the caller's seq line must be
// gap-free (core/policy.h): each batch starts where the previous one
// ended, and a fresh policy's line starts at 0. Debug builds assert it
// at every CLIC batch; Release builds compile the assert out and skip.
TEST(ClicSeqLineDeathTest, GapInSeqLineTripsAssert) {
#ifdef NDEBUG
  GTEST_SKIP() << "the seq-line assert is compiled out under NDEBUG";
#else
  const Trace trace = RandomTrace(0x5EC, 300);
  const Request* reqs = trace.requests.data();
  std::vector<std::uint8_t> hits(trace.size());
  ClicOptions options;
  options.window = 100;
  ClicPolicy policy(32, options);
  policy.AccessBatch(reqs, 0, 100, hits.data());
  policy.AccessBatch(reqs + 100, 100, 100, hits.data() + 100);
  EXPECT_EQ(policy.windows_completed(), 1u);
  EXPECT_DEATH(policy.AccessBatch(reqs + 200, 201, 100, hits.data() + 200),
               "gap in the seq line");
  ClicPolicy fresh(32, options);
  EXPECT_DEATH(fresh.Access(trace.requests[0], 5), "gap in the seq line");
#endif
}

TEST(BatchEquivalenceTest, SimulateMatchesManualScalarReplay) {
  // The shipping batched Simulate() — stats folded per batch — must
  // agree with a hand-rolled per-request replay on every counter.
  const Trace trace = RandomTrace(0xE4E4, 5'000);
  for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kClic}) {
    auto manual_policy =
        MakePolicy(kind, 64, &trace, SmallWindowOptions());
    // Per-request accounting written out here, sharing no code with
    // the ClientTally that Simulate() counts through.
    const auto count = [](CacheStats& stats, const Request& r, bool hit) {
      if (r.op == OpType::kRead) {
        ++stats.reads;
        if (hit) ++stats.read_hits;
      } else {
        ++stats.writes;
        if (hit) ++stats.write_hits;
      }
    };
    SimResult manual;
    std::map<ClientId, CacheStats> per_client;
    SeqNum seq = 0;
    for (const Request& r : trace.requests) {
      const bool hit = manual_policy->Access(r, seq++);
      count(manual.total, r, hit);
      count(per_client[r.client], r, hit);
    }
    auto policy = MakePolicy(kind, 64, &trace, SmallWindowOptions());
    const SimResult batched = Simulate(trace, *policy);
    EXPECT_EQ(batched.total.reads, manual.total.reads) << PolicyName(kind);
    EXPECT_EQ(batched.total.writes, manual.total.writes) << PolicyName(kind);
    EXPECT_EQ(batched.total.read_hits, manual.total.read_hits)
        << PolicyName(kind);
    EXPECT_EQ(batched.total.write_hits, manual.total.write_hits)
        << PolicyName(kind);
    ASSERT_EQ(batched.per_client.size(), per_client.size())
        << PolicyName(kind);
    for (const auto& [client, stats] : per_client) {
      const CacheStats& b = batched.per_client.at(client);
      EXPECT_EQ(b.reads, stats.reads) << PolicyName(kind) << client;
      EXPECT_EQ(b.read_hits, stats.read_hits) << PolicyName(kind) << client;
      EXPECT_EQ(b.writes, stats.writes) << PolicyName(kind) << client;
      EXPECT_EQ(b.write_hits, stats.write_hits) << PolicyName(kind) << client;
    }
  }
}

// Batch == scalar at bench scale with the paper's options: the micro
// trace at 16,384 pages, and the server-scale shape (4M pages, Zipf
// 0.8) at 262,144 pages, cut to its first 1M requests so a sanitizer
// run stays short. Both grow the page table in the middle of a
// 4096-request batch and evict, and CLIC closes nine windows at
// W = 1e5, none of them on a batch boundary.
TEST(BatchEquivalenceTest, BenchScaleLruAndClicAtBatch4096) {
  const Trace server_scale = MakeMicroTrace(4'000'000, 0.8, 1'000'000);
  const struct {
    const char* name;
    const Trace* trace;
    std::size_t cache_pages;
  } shapes[] = {{"micro", &MicroTrace(), kMicroCachePages},
                {"server-scale", &server_scale, 262'144}};
  for (const auto& shape : shapes) {
    for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kClic}) {
      auto scalar_policy =
          MakePolicy(kind, shape.cache_pages, shape.trace, ClicOptions{});
      const std::vector<std::uint8_t> expected =
          ScalarDecisions(*scalar_policy, *shape.trace);
      auto batched_policy =
          MakePolicy(kind, shape.cache_pages, shape.trace, ClicOptions{});
      const std::vector<std::uint8_t> got =
          BatchedDecisions(*batched_policy, *shape.trace, {4096});
      EXPECT_EQ(FirstDivergence(expected, got), -1)
          << PolicyName(kind) << " on " << shape.name
          << " diverged at request " << FirstDivergence(expected, got);
      const auto misses = static_cast<std::size_t>(
          std::count(expected.begin(), expected.end(), 0));
      EXPECT_GT(misses, shape.cache_pages)
          << PolicyName(kind) << " on " << shape.name << " never evicted";
      if (const auto* clic = dynamic_cast<const ClicPolicy*>(
              batched_policy.get())) {
        EXPECT_EQ(clic->windows_completed(), 9u) << shape.name;
      }
    }
  }
}

// The throughput floors of the batched Simulate() loop over the micro
// trace: LRU >= 10M and CLIC >= 2M requests per second, best of three
// passes, each with a fresh policy. They catch an access path that
// went asymptotically wrong (an allocation or a search per request),
// not small regressions; benchmark/ measures those. Only an optimized
// build without sanitizers measures anything, so others skip.
TEST(ThroughputFloorTest, LruAndClicSimulateAboveFloors) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "throughput floors need an NDEBUG build without "
                  "sanitizers";
#else
  const Trace& trace = MicroTrace();
  const struct {
    PolicyKind kind;
    double floor;
  } floors[] = {{PolicyKind::kLru, 10e6}, {PolicyKind::kClic, 2e6}};
  for (const auto& f : floors) {
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      const auto t0 = std::chrono::steady_clock::now();
      auto policy = MakePolicy(f.kind, kMicroCachePages, &trace, ClicOptions{});
      const SimResult result = Simulate(trace, *policy);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - t0;
      ASSERT_EQ(result.total.reads + result.total.writes, trace.size());
      best = std::max(best, static_cast<double>(trace.size()) / took.count());
    }
    std::printf("%s: best of 3 passes %.1f M req/s (floor %.0f M)\n",
                PolicyName(f.kind), best / 1e6, f.floor / 1e6);
    EXPECT_GE(best, f.floor) << PolicyName(f.kind);
  }
#endif
}

}  // namespace
}  // namespace clic
