// Chaos contract tests: fault plans parse (and reject garbage with the
// offending clause named), injected faults replay deterministically,
// admission accounting stays exact under every outcome, the hint-sanity
// guard quarantines corruption instead of crashing or polluting CLIC
// state, the watchdog and deadline paths both fire and count, and a
// stalled shard costs only the client routed at it.
#include "server/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/trace.h"
#include "server/cache_server.h"
#include "sim/simulator.h"
#include "tests/synthetic_trace.h"

namespace clic::server {
namespace {

using fault::FaultPlan;
using fault::ParseFaultPlan;

// ---- plan grammar ----------------------------------------------------------

TEST(FaultPlanParseTest, ParsesEveryClauseKind) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(
      "seed=42;stall:shard=1,after=10,drains=5,ms=2.5;"
      "pause:consumer=0,after=7,batches=2,ms=0.5;shed:every=9;"
      "corrupt:every=4,flips=3",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].shard, 1u);
  EXPECT_EQ(plan.stalls[0].after_drain, 10u);
  EXPECT_EQ(plan.stalls[0].drains, 5u);
  EXPECT_DOUBLE_EQ(plan.stalls[0].ms, 2.5);
  ASSERT_EQ(plan.pauses.size(), 1u);
  EXPECT_EQ(plan.pauses[0].consumer, 0u);
  EXPECT_EQ(plan.pauses[0].after_batch, 7u);
  EXPECT_EQ(plan.pauses[0].batches, 2u);
  EXPECT_DOUBLE_EQ(plan.pauses[0].ms, 0.5);
  EXPECT_EQ(plan.shed_every, 9u);
  EXPECT_EQ(plan.corrupt_every, 4u);
  EXPECT_EQ(plan.corrupt_flips, 3u);
  EXPECT_TRUE(plan.HasStalls());
  EXPECT_TRUE(plan.HasPauses());
  EXPECT_TRUE(plan.HasCorruption());
}

TEST(FaultPlanParseTest, RejectsMalformedSpecsNamingTheClause) {
  const struct {
    const char* spec;
    const char* must_mention;
  } cases[] = {
      {"", "empty"},
      {"stall:shard=0;;shed:every=2", "empty"},
      {"bogus:every=1", "bogus"},
      {"seed=abc", "abc"},
      {"seed=-3", "-3"},
      {"burst=2", "burst"},
      {"stall:shard=0,after=1,ms=nope", "nope"},
      {"stall:shard=0,whatever=1", "whatever"},
      {"pause:consumer=0,ms=-1", "-1"},
      {"shed:every=0", "every"},
      {"shed:often=2", "often"},
      {"corrupt:every=0", "corrupt"},
      {"corrupt:every=2,flips=0", "corrupt"},
      {"stall:shard", "malformed"},
      {"justakey", "justakey"},
      // Signs and leading spaces break the number rules
      // (common/text_parse.h); the clause is named either way.
      {"shed:every= -1", "shed:every= -1"},
      {"shed:every= 5", "shed:every= 5"},
      {"shed:every=+5", "shed:every=+5"},
      {"seed= 3", "seed= 3"},
      {"seed=+3", "seed=+3"},
      {"stall:shard=0,ms= 1", "stall:shard=0,ms= 1"},
      {"stall:shard=0,ms=+1", "stall:shard=0,ms=+1"},
      {"pause:consumer= 0", "pause:consumer= 0"},
      {"net:reset=-2", "net:reset=-2"},
      {"net:accept-stall=1,stall-ms=-5", "stall-ms=-5"},
      {"corrupt:every=2,flips=4294967297", "flips=4294967297"},
      // A setting is given once: the repeat is named with its clause.
      {"shed:every=3;shed:every=5", "'shed:every=5': shed given twice"},
      {"seed=1;shed:every=2;seed=2", "'seed=2': seed given twice"},
      {"corrupt:every=3;corrupt:flips=2", "corrupt given twice"},
      {"net:reset=2;net:torn-write=3,reset=3", "net:reset given twice"},
      {"net:reset=2,reset=3", "net:reset given twice"},
  };
  for (const auto& c : cases) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(ParseFaultPlan(c.spec, &plan, &error)) << c.spec;
    EXPECT_NE(error.find(c.must_mention), std::string::npos)
        << "error for '" << c.spec << "' should mention '" << c.must_mention
        << "', got: " << error;
  }
}

// stall: and pause: clauses add up, and net: keys may come in several
// clauses, each key once.
TEST(FaultPlanParseTest, StallsAndPausesAddUpAndNetClausesMerge) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(
      "stall:shard=0,ms=1;stall:shard=1,ms=1;pause:consumer=0;"
      "pause:consumer=1;net:reset=2;net:torn-write=3",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.stalls.size(), 2u);
  EXPECT_EQ(plan.pauses.size(), 2u);
  EXPECT_EQ(plan.net_reset_every, 2u);
  EXPECT_EQ(plan.net_torn_write_every, 3u);
}

// ---- determinism under injected faults -------------------------------------

// Stalls and pauses only delay work; a deterministic run under them
// must stay bit-identical to the fault-free sequential baseline, and
// replay identically.
TEST(FaultInjectionTest, StallsAndPausesPreserveDecisions) {
  const Trace trace = MakeSynthetic("chaos-delay", 13, 3000, 2);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(
      "stall:shard=0,after=2,drains=3,ms=2;stall:shard=1,after=5,drains=2,"
      "ms=1;pause:consumer=0,after=4,batches=3,ms=1",
      &plan, &error))
      << error;

  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 64;
  options.policy = PolicyKind::kClic;
  options.clic.window = 400;
  options.deterministic = true;
  options.fault = &plan;
  LoadOptions load;
  load.clients = 2;
  load.batch_size = 37;

  const ServeResult first = ServeTrace(trace, options, load);
  const ServeResult second = ServeTrace(trace, options, load);
  const SimResult expected = PartitionedSimulate(trace, options);
  EXPECT_EQ(ResultMismatch(first, expected), "");
  EXPECT_EQ(ResultMismatch(second, expected), "");
  EXPECT_EQ(first.requests, trace.size());
  EXPECT_TRUE(first.admission.Balanced()) << first.admission.Describe();
  EXPECT_EQ(first.admission.shed_requests, 0u);
}

// shed:every=k removes a pure function of (client, submit index); the
// survivors must be bit-identical to simulating the filtered trace, and
// the ledger must count every victim exactly once.
TEST(FaultInjectionTest, ShedEveryIsExactAndBitIdentical) {
  const Trace trace = MakeSynthetic("chaos-shed", 29, 4000, 2);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("shed:every=4", &plan, &error));

  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 64;
  options.policy = PolicyKind::kClic;
  options.clic.window = 400;
  options.deterministic = true;
  options.fault = &plan;
  LoadOptions load;
  load.clients = 2;
  load.batch_size = 64;

  const ServeResult served = ServeTrace(trace, options, load);
  const Trace filtered = FilterShedBatches(trace, load, &plan);
  EXPECT_EQ(ResultMismatch(served, PartitionedSimulate(filtered, options)),
            "");

  // Exact shed accounting: each client submits ceil(2000/64) = 32
  // batches, every 4th is shed -> 8 per client.
  const AdmissionStats& a = served.admission;
  EXPECT_EQ(a.submitted_batches, 64u);
  EXPECT_EQ(a.shed_batches, 16u);
  EXPECT_EQ(a.applied_batches, 48u);
  EXPECT_EQ(a.expired_batches, 0u);
  EXPECT_EQ(a.stopped_batches, 0u);
  EXPECT_TRUE(a.Balanced()) << a.Describe();
  EXPECT_EQ(served.requests, filtered.size());
  EXPECT_EQ(a.submitted_requests, trace.size());
}

// Corruption is seeded per (plan seed, client, submit index): two runs
// inject identical bit flips, so decisions and quarantine counts
// replay exactly; changing the seed changes the victims.
TEST(FaultInjectionTest, CorruptionReplaysBitIdentically) {
  const Trace trace = MakeSynthetic("chaos-corrupt", 37, 3000, 2);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("corrupt:every=3,flips=2;seed=7", &plan, &error));

  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 64;
  options.policy = PolicyKind::kClic;
  options.clic.window = 400;
  options.deterministic = true;
  options.hint_bound = static_cast<std::uint32_t>(trace.hints->size());
  options.fault = &plan;
  LoadOptions load;
  load.clients = 2;
  load.batch_size = 50;

  const ServeResult first = ServeTrace(trace, options, load);
  const ServeResult second = ServeTrace(trace, options, load);
  EXPECT_EQ(ResultMismatch(first, second), "");
  EXPECT_EQ(first.quarantined, second.quarantined);
  // Flipping high bits of tiny hint ids almost always lands out of
  // range, so the guard must have fired.
  EXPECT_GT(first.quarantined, 0u);
  EXPECT_EQ(first.requests, trace.size()) << "corruption must not drop work";

  FaultPlan other = plan;
  other.seed = 8;
  ServerOptions reseeded = options;
  reseeded.fault = &other;
  const ServeResult third = ServeTrace(trace, reseeded, load);
  EXPECT_NE(first.quarantined, third.quarantined)
      << "a different seed should corrupt different bits (astronomically "
         "unlikely to collide on every batch)";
}

// The guard also protects against hostile ids arriving directly (not
// via the fault hook): a crafted trace with huge hint ids must be
// quarantined per request, not fed to ClicPolicy::EnsureHint where a
// 0xFFFFFFFF id would demand a ~4-billion-entry allocation.
TEST(FaultInjectionTest, GuardQuarantinesCraftedOutOfRangeHints) {
  Trace trace = MakeSynthetic("crafted", 3, 600, 2);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    if (i % 7 == 0) {
      trace.requests[i].hint_set = 0xFFFFFFFFu - static_cast<HintSetId>(i);
      ++bad;
    }
  }
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 32;
  options.policy = PolicyKind::kClic;
  options.clic.window = 200;
  options.deterministic = true;
  options.hint_bound = static_cast<std::uint32_t>(trace.hints->size());
  LoadOptions load;
  load.clients = 2;
  load.batch_size = 32;
  const ServeResult served = ServeTrace(trace, options, load);
  EXPECT_EQ(served.quarantined, bad);
  EXPECT_EQ(served.requests, trace.size());
  EXPECT_TRUE(served.admission.Balanced()) << served.admission.Describe();
}

TEST(FaultInjectionTest, ConstructorRejectsUnusableFaultConfigs) {
  FaultPlan corrupt;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("corrupt:every=2", &corrupt, &error));
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 16;
  options.fault = &corrupt;
  options.hint_bound = 0;  // corruption without the guard: refuse
  EXPECT_THROW(CacheServer(options, 1), std::invalid_argument);

  FaultPlan far_stall;
  ASSERT_TRUE(
      ParseFaultPlan("stall:shard=5,after=0,drains=1,ms=1", &far_stall,
                     &error));
  ServerOptions stall_opts;
  stall_opts.shards = 2;
  stall_opts.cache_pages = 16;
  stall_opts.fault = &far_stall;
  EXPECT_THROW(CacheServer(stall_opts, 1), std::invalid_argument);
}

// ---- admission under pressure ---------------------------------------------

// Per-batch service deadlines: batches queued behind a wedged drain
// longer than batch_deadline_ms are dropped as kExpired, never served
// stale, and enqueued == applied + expired (+ stopped).
TEST(FaultInjectionTest, QueuedBatchesExpireBehindAStall) {
  const Trace trace = MakeSynthetic("expire", 23, 64 * 6, 1);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      ParseFaultPlan("stall:shard=0,after=0,drains=1,ms=150", &plan, &error));
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 32;
  options.batch_deadline_ms = 40.0;
  options.fault = &plan;
  CacheServer server(options, 1);
  for (std::size_t slot = 0; slot < 6; ++slot) {
    ASSERT_EQ(server.Begin(0, slot, trace.requests.data() + 64 * slot, 64),
              SubmitResult::kEnqueued);
  }
  std::uint64_t expired = 0;
  for (std::size_t slot = 0; slot < 6; ++slot) {
    expired += server.Await(0, slot) == SubmitResult::kExpired ? 1 : 0;
  }
  server.Finish(0);
  server.Shutdown();
  const AdmissionStats a = server.TotalAdmission();
  // Batch 1 is in flight before its deadline can pass; the 150ms stall
  // then pushes every queued batch far past the 40ms deadline.
  EXPECT_GE(a.expired_batches, 1u);
  EXPECT_EQ(a.expired_batches, expired);
  EXPECT_EQ(a.enqueued_batches,
            a.applied_batches + a.expired_batches + a.stopped_batches);
  EXPECT_TRUE(a.Balanced()) << a.Describe();
}

// The watchdog: while shard 0's drain is wedged past watchdog_ms,
// admission sheds batches routed at it (counted separately), and
// recovery is automatic once the drain completes.
TEST(FaultInjectionTest, WatchdogShedsTrafficAtStalledShard) {
  const Trace trace = MakeSynthetic("watchdog", 31, 32 * 200, 1);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      ParseFaultPlan("stall:shard=0,after=0,drains=2,ms=150", &plan, &error));
  ServerOptions options;
  options.shards = 1;  // every batch touches the stalled shard
  options.cache_pages = 32;
  options.watchdog_ms = 10.0;
  options.fault = &plan;
  CacheServer server(options, 1);
  // Paced pipelined Begins: the first lands in the stall, and once the
  // drain has been in flight > 10ms the watchdog starts shedding the
  // rest at admission instead of queueing them behind the wedge. A shed
  // Begin leaves its slot free; an admitted one is Awaited before the
  // slot is reused.
  std::array<bool, CacheServer::kPipelineDepth> in_flight{};
  std::uint64_t submitted = 0;
  for (std::size_t pos = 0; pos + 32 <= trace.requests.size(); pos += 32) {
    const std::size_t slot = submitted % in_flight.size();
    if (in_flight[slot]) server.Await(0, slot);
    in_flight[slot] = server.Begin(0, slot, trace.requests.data() + pos,
                                   32) == SubmitResult::kEnqueued;
    ++submitted;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (server.watchdog_sheds() >= 3) break;  // proven; stop early
  }
  server.Finish(0);
  server.Stop();
  for (std::size_t slot = 0; slot < in_flight.size(); ++slot) {
    if (in_flight[slot]) server.Await(0, slot);
  }
  EXPECT_GE(server.watchdog_sheds(), 1u);
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.submitted_batches, submitted);
  EXPECT_GE(a.shed_batches, server.watchdog_sheds());
  EXPECT_TRUE(a.Balanced()) << a.Describe();
}

// A wedged shard under pipelined load: 4 shards with one owning
// consumer each, LRU at 12,000 pages, a 50 ms batch deadline, a 10 ms
// watchdog, and a 20 ms stall on every drain of shard 0. Client c
// replays only shard c's partition: client 0 keeps kPipelineDepth
// batches in flight into the stall, clients 1-3 drive closed-loop. The
// ledger balances in total and per client, and only client 0 is turned
// away: its queued batches outlive the deadline or meet the watchdog,
// while clients 1-3 never touch the stalled shard.
TEST(FaultInjectionTest, StalledShardLedgerExactUnderPipelinedLoad) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kDepth = CacheServer::kPipelineDepth;
  const Trace trace =
      MakeSynthetic("overload", 41, kShards * 24 * kBatch, 1);
  const std::vector<Trace> parts = PartitionByShard(trace, kShards);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("stall:shard=0,after=0,drains=1000000,ms=20",
                             &plan, &error))
      << error;
  ServerOptions options;
  options.shards = kShards;
  options.consumers = kShards;
  options.cache_pages = 12'000;
  options.policy = PolicyKind::kLru;
  options.batch_deadline_ms = 50.0;
  options.watchdog_ms = 10.0;
  options.fault = &plan;
  CacheServer server(options, kShards);
  std::vector<std::uint64_t> driver_batches(kShards, 0);
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < kShards; ++c) {
    drivers.emplace_back([&, c] {
      const std::vector<Request>& reqs = parts[c].requests;
      // Client 0 reuses its slots round-robin, awaiting each admitted
      // batch just before its slot is reused.
      std::array<bool, kDepth> in_flight{};
      for (std::size_t pos = 0; pos < reqs.size(); pos += kBatch) {
        const std::size_t count = std::min(kBatch, reqs.size() - pos);
        const std::size_t slot = driver_batches[c]++ % kDepth;
        if (c != 0) {
          server.Submit(c, reqs.data() + pos, count);
          continue;
        }
        if (in_flight[slot]) server.Await(c, slot);
        in_flight[slot] = server.Begin(c, slot, reqs.data() + pos, count) ==
                          SubmitResult::kEnqueued;
      }
      for (std::size_t slot = 0; slot < kDepth; ++slot) {
        if (in_flight[slot]) server.Await(c, slot);
      }
      server.Finish(c);
    });
  }
  for (std::thread& t : drivers) t.join();
  server.Shutdown();

  const ServeResult result = server.Snapshot();
  const AdmissionStats& total = result.admission;
  std::uint64_t submitted = 0;
  for (std::uint64_t n : driver_batches) submitted += n;
  EXPECT_EQ(total.submitted_batches, submitted);
  EXPECT_TRUE(total.Balanced()) << total.Describe();
  EXPECT_GT(total.applied_requests, 0u);
  const std::vector<AdmissionStats>& per_client = result.per_client_admission;
  ASSERT_EQ(per_client.size(), kShards);
  for (std::size_t c = 0; c < kShards; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    EXPECT_TRUE(per_client[c].Balanced()) << per_client[c].Describe();
    if (c == 0) {
      EXPECT_GT(per_client[c].shed_batches + per_client[c].expired_batches,
                0u);
    } else {
      EXPECT_EQ(per_client[c].shed_batches, 0u);
    }
  }
}

}  // namespace
}  // namespace clic::server
