// Chaos contract tests: fault plans parse (and reject garbage with the
// offending clause named), injected faults replay deterministically,
// admission accounting stays exact under every outcome, the hint-sanity
// guard quarantines corruption instead of crashing or polluting CLIC
// state, deadlines fire and count, and a batch split across consumers
// is applied on every shard or on none, past a deadline and through
// Stop() alike.
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

// A deadline too long for any run never fires, however large the
// finite value --deadline-ms accepts: its stamp must not overflow into
// the past and expire every batch.
TEST(FaultInjectionTest, HugeDeadlinesNeverFire) {
  const Trace trace = MakeSynthetic("huge-deadline", 29, 64 * 4, 1);
  for (const double deadline_ms : {9.3e12, 1e13, 1e300}) {
    SCOPED_TRACE(testing::Message() << "deadline_ms " << deadline_ms);
    ServerOptions options;
    options.shards = 2;
    options.cache_pages = 32;
    options.batch_deadline_ms = deadline_ms;
    CacheServer server(options, 1);
    for (std::size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(server.Submit(0, trace.requests.data() + 64 * b, 64),
                SubmitResult::kApplied);
    }
    server.Finish(0);
    server.Shutdown();
  }
}

// A wedged shard under pipelined load: 4 shards with one owning
// consumer each, LRU at 12,000 pages, a 50 ms batch deadline and a
// 20 ms stall on every drain of shard 0. Client c replays only shard
// c's partition, so no batch splits: client 0 keeps kPipelineDepth
// batches in flight into the stall, clients 1-3 drive closed-loop at
// shards that never stall. The ledger balances in total and per
// client, it agrees with the shards, and client 0's queued batches
// outlive the deadline.
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
  EXPECT_EQ(result.requests, total.applied_requests);
  const std::vector<AdmissionStats>& per_client = result.per_client_admission;
  ASSERT_EQ(per_client.size(), kShards);
  for (std::size_t c = 0; c < kShards; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    EXPECT_TRUE(per_client[c].Balanced()) << per_client[c].Describe();
  }
  EXPECT_GT(per_client[0].expired_batches, 0u);
}

// ---- one outcome per batch -------------------------------------------------

// A trace of `batches` batches of `batch` requests in which every
// request carries its batch's index as its client id, so the server's
// per-client counts say how much of each batch the shards applied.
Trace BatchTaggedTrace(const std::string& name, std::uint32_t salt,
                       std::size_t batches, std::size_t batch) {
  Trace trace = MakeSynthetic(name, salt, batches * batch, 1);
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    trace.requests[i].client = static_cast<ClientId>(i / batch);
  }
  return trace;
}

// Each batch was applied on all of its shards or on none, as its one
// outcome says, and the shards' count equals the ledger's.
void ExpectWholeBatches(const ServeResult& result,
                        const std::vector<SubmitResult>& outcomes,
                        std::size_t batch) {
  for (std::size_t b = 0; b < outcomes.size(); ++b) {
    const auto it = result.per_client.find(static_cast<ClientId>(b));
    const std::uint64_t applied =
        it == result.per_client.end() ? 0 : it->second.reads + it->second.writes;
    EXPECT_EQ(applied, outcomes[b] == SubmitResult::kApplied ? batch : 0u)
        << "batch " << b << " ended " << static_cast<int>(outcomes[b]);
  }
  EXPECT_EQ(result.requests, result.admission.applied_requests);
  EXPECT_TRUE(result.admission.Balanced()) << result.admission.Describe();
}

// 2 shards on 2 consumers, so nearly every batch splits into two
// slices, and shard 1 stalls 15 ms on each of 20 drains while 4 clients
// keep kPipelineDepth batches in flight: batches queue past their 50 ms
// deadline at shard 1 while shard 0's consumer keeps up. The first
// slice popped decides for the batch, so no batch is applied on one
// shard and reported expired for the other.
TEST(FaultInjectionTest, SplitBatchesExpireWholeOrNotAtAll) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 100;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kDepth = CacheServer::kPipelineDepth;
  const Trace trace =
      BatchTaggedTrace("expire-split", 43, kClients * kPerClient, kBatch);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("stall:shard=1,after=2,drains=20,ms=15", &plan,
                             &error))
      << error;
  ServerOptions options;
  options.shards = 2;
  options.consumers = 2;
  options.cache_pages = 6000;
  options.batch_deadline_ms = 50.0;
  options.fault = &plan;
  CacheServer server(options, kClients);
  std::vector<SubmitResult> outcomes(kClients * kPerClient);
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      // Client c's batches are c * kPerClient + i; batch i uses slot
      // i % kDepth, awaited just before the slot is reused.
      const auto await = [&](std::size_t i) {
        outcomes[c * kPerClient + i] = server.Await(c, i % kDepth);
      };
      for (std::size_t i = 0; i < kPerClient; ++i) {
        if (i >= kDepth) await(i - kDepth);
        const Request* reqs =
            trace.requests.data() + (c * kPerClient + i) * kBatch;
        EXPECT_EQ(server.Begin(c, i % kDepth, reqs, kBatch),
                  SubmitResult::kEnqueued);
      }
      for (std::size_t i = kPerClient - kDepth; i < kPerClient; ++i) await(i);
      server.Finish(c);
    });
  }
  for (std::thread& t : drivers) t.join();
  server.Shutdown();
  ExpectWholeBatches(server.Snapshot(), outcomes, kBatch);
}

// Stop() while shard 1's consumer sits in a 2 s stall on the first of
// 16 in-flight batches, each split across 2 consumers: shard 0's
// consumer has already started every batch, so Stop() finishes them
// all on shard 1 too instead of reporting them stopped, and returns
// without riding out the stall.
TEST(FaultInjectionTest, StopFinishesSplitBatchesAlreadyStarted) {
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kDepth = CacheServer::kPipelineDepth;
  const Trace trace = BatchTaggedTrace("stop-split", 47, kDepth, kBatch);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("stall:shard=1,after=0,drains=1000,ms=2000",
                             &plan, &error))
      << error;
  ServerOptions options;
  options.shards = 2;
  options.consumers = 2;
  options.cache_pages = 6000;
  options.fault = &plan;
  CacheServer server(options, 1);
  for (std::size_t b = 0; b < kDepth; ++b) {
    ASSERT_EQ(server.Begin(0, b, trace.requests.data() + b * kBatch, kBatch),
              SubmitResult::kEnqueued);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_seconds, 1.0) << "the final drain must not sleep out stalls";
  std::vector<SubmitResult> outcomes(kDepth);
  for (std::size_t b = 0; b < kDepth; ++b) outcomes[b] = server.Await(0, b);
  ExpectWholeBatches(server.Snapshot(), outcomes, kBatch);
}

}  // namespace
}  // namespace clic::server
