#include "server/cache_server.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trace.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"

namespace clic::server {
namespace {

// Deterministic in-memory workload: several clients, a skewed page
// pattern with ~20% writes — the same shape test_sweep uses, kept
// local so the server tests need no disk or generation.
Trace MakeSynthetic(const std::string& name, std::uint32_t salt,
                    std::size_t n, std::size_t num_clients = 2) {
  Trace trace;
  trace.name = name;
  std::vector<HintSetId> hints;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    hints.push_back(trace.hints->Intern(
        HintVector{static_cast<ClientId>(c), {c + 1, 100 + salt + c}}));
  }
  trace.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = static_cast<PageId>(
        i % 3 == 0 ? (i * 7919 + salt) % 61 : (i * 104729 + salt) % 509);
    r.client = static_cast<ClientId>(i % num_clients);
    r.hint_set = hints[r.client];
    if (i % 5 == 0) {
      r.op = OpType::kWrite;
      r.write_kind =
          i % 10 == 0 ? WriteKind::kRecovery : WriteKind::kReplacement;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

void ExpectSameStats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.write_hits, b.write_hits);
}

TEST(ShardOfTest, StableAndInRange) {
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (PageId page = 0; page < 1000; ++page) {
      const std::size_t s = ShardOf(page, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardOf(page, shards)) << "must be a pure function";
    }
  }
  // All pages land on the single shard.
  EXPECT_EQ(ShardOf(12345, 1), 0u);
}

TEST(ShardOfTest, SpreadsPagesAcrossShards) {
  std::set<std::size_t> seen;
  for (PageId page = 0; page < 64; ++page) seen.insert(ShardOf(page, 4));
  EXPECT_EQ(seen.size(), 4u) << "64 pages should touch all 4 shards";
}

TEST(PartitionByShardTest, PreservesOrderAndCoversEveryRequest) {
  const Trace trace = MakeSynthetic("part", 5, 600);
  const std::vector<Trace> parts = PartitionByShard(trace, 4);
  ASSERT_EQ(parts.size(), 4u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    total += parts[s].size();
    for (const Request& r : parts[s].requests) {
      EXPECT_EQ(ShardOf(r.page, 4), s);
    }
    // Registry is a deep copy with identical contents: ids unchanged.
    EXPECT_NE(parts[s].hints.get(), trace.hints.get());
    ASSERT_EQ(parts[s].hints->size(), trace.hints->size());
  }
  EXPECT_EQ(total, trace.size());
  // Order within a shard is trace order: replaying the partition's
  // pages against a filtered scan of the original must line up.
  for (std::size_t s = 0; s < parts.size(); ++s) {
    std::size_t j = 0;
    for (const Request& r : trace.requests) {
      if (ShardOf(r.page, 4) != s) continue;
      ASSERT_LT(j, parts[s].size());
      EXPECT_EQ(parts[s].requests[j].page, r.page);
      EXPECT_EQ(parts[s].requests[j].client, r.client);
      ++j;
    }
    EXPECT_EQ(j, parts[s].size());
  }
}

// The acceptance criterion: deterministic serve is bit-identical to
// per-shard sequential Simulate() of the partitioned trace, for shard
// counts {1, 2, 4} and both LRU and CLIC, across client counts.
TEST(CacheServerTest, DeterministicModeMatchesPartitionedSimulate) {
  const Trace trace = MakeSynthetic("det", 11, 4000, 3);
  ClicOptions clic;
  clic.window = 500;
  clic.outqueue_per_page = 2.0;
  for (PolicyKind policy : {PolicyKind::kLru, PolicyKind::kClic}) {
    for (std::size_t shards : {1u, 2u, 4u}) {
      for (std::size_t clients : {1u, 3u}) {
        SCOPED_TRACE(std::string(PolicyName(policy)) + " shards=" +
                     std::to_string(shards) + " clients=" +
                     std::to_string(clients));
        ServerOptions options;
        options.shards = shards;
        options.cache_pages = 96;
        options.policy = policy;
        options.clic = clic;
        options.deterministic = true;
        LoadOptions load;
        load.clients = clients;
        load.batch_size = 17;  // odd size: batch boundaries land anywhere
        const ServeResult served = ServeTrace(trace, options, load);
        const SimResult expected = PartitionedSimulate(trace, options);
        ExpectSameStats(served.total, expected.total);
        ASSERT_EQ(served.per_client.size(), expected.per_client.size());
        for (const auto& [client, stats] : expected.per_client) {
          const auto it = served.per_client.find(client);
          ASSERT_NE(it, served.per_client.end()) << "client " << client;
          ExpectSameStats(it->second, stats);
        }
        EXPECT_EQ(served.requests, trace.size());
      }
    }
  }
}

TEST(CacheServerTest, DeterministicRunsAreRepeatable) {
  const Trace trace = MakeSynthetic("rep", 23, 3000);
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 64;
  options.policy = PolicyKind::kClic;
  options.clic.window = 400;
  options.deterministic = true;
  LoadOptions load;
  load.clients = 2;
  load.batch_size = 64;
  const ServeResult a = ServeTrace(trace, options, load);
  const ServeResult b = ServeTrace(trace, options, load);
  ExpectSameStats(a.total, b.total);
}

// Concurrent mode can interleave shard streams any way the scheduler
// likes, but it must never lose or duplicate a request, and per-client
// read/write *counts* (not hits) are order-independent.
TEST(CacheServerTest, ConcurrentModeAppliesEveryRequestExactlyOnce) {
  const Trace trace = MakeSynthetic("conc", 31, 6000, 4);
  ServerOptions options;
  options.shards = 4;
  options.cache_pages = 96;
  options.policy = PolicyKind::kLru;
  options.max_consumers = 3;
  LoadOptions load;
  load.clients = 4;
  load.batch_size = 33;
  const ServeResult served = ServeTrace(trace, options, load);
  EXPECT_EQ(served.requests, trace.size());
  // Request composition matches the trace exactly.
  std::uint64_t reads = 0, writes = 0;
  std::map<ClientId, std::uint64_t> per_client;
  for (const Request& r : trace.requests) {
    (r.op == OpType::kRead ? reads : writes) += 1;
    per_client[r.client] += 1;
  }
  EXPECT_EQ(served.total.reads, reads);
  EXPECT_EQ(served.total.writes, writes);
  ASSERT_EQ(served.per_client.size(), per_client.size());
  for (const auto& [client, count] : per_client) {
    const auto it = served.per_client.find(client);
    ASSERT_NE(it, served.per_client.end());
    EXPECT_EQ(it->second.reads + it->second.writes, count);
  }
  // Hits can differ from the sequential order but never exceed accesses.
  EXPECT_LE(served.total.read_hits, served.total.reads);
  EXPECT_LE(served.total.write_hits, served.total.writes);
  EXPECT_GE(served.throughput_rps, 0.0);
  EXPECT_LE(served.p50_us, served.p99_us);
}

TEST(CacheServerTest, MoreClientsThanRequestsAndOversizedBatches) {
  const Trace trace = MakeSynthetic("tiny", 41, 5);
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 8;
  options.deterministic = true;
  LoadOptions load;
  load.clients = 9;  // most clients get an empty chunk
  load.batch_size = 1000;
  const ServeResult served = ServeTrace(trace, options, load);
  EXPECT_EQ(served.requests, trace.size());
  const SimResult expected = PartitionedSimulate(trace, options);
  ExpectSameStats(served.total, expected.total);
}

// PartitionedSimulate is the shared ground truth for --verify and the
// determinism tests; its budget cap must mirror ServeTrace's.
TEST(PartitionedSimulateTest, HonorsRequestBudget) {
  const Trace trace = MakeSynthetic("budget", 7, 1000);
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 32;
  const SimResult capped = PartitionedSimulate(trace, options, 300);
  EXPECT_EQ(capped.total.reads + capped.total.writes, 300u);
  const SimResult full = PartitionedSimulate(trace, options);
  EXPECT_EQ(full.total.reads + full.total.writes, trace.size());
}

TEST(CacheServerTest, RejectsUnusableConfigurations) {
  const Trace trace = MakeSynthetic("bad", 1, 10);
  ServerOptions options;
  options.cache_pages = 8;
  LoadOptions load;

  ServerOptions opt_policy = options;
  opt_policy.policy = PolicyKind::kOpt;
  EXPECT_THROW(ServeTrace(trace, opt_policy, load), std::invalid_argument);

  ServerOptions no_shards = options;
  no_shards.shards = 0;
  EXPECT_THROW(ServeTrace(trace, no_shards, load), std::invalid_argument);

  LoadOptions no_clients = load;
  no_clients.clients = 0;
  EXPECT_THROW(ServeTrace(trace, options, no_clients), std::invalid_argument);

  LoadOptions no_batch = load;
  no_batch.batch_size = 0;
  EXPECT_THROW(ServeTrace(trace, options, no_batch), std::invalid_argument);

  ServerOptions det = options;
  det.deterministic = true;
  LoadOptions timed = load;
  timed.duration_seconds = 0.5;
  EXPECT_THROW(ServeTrace(trace, det, timed), std::invalid_argument);
}

// Ownership topology validation: a consumer that owns zero shards
// would idle forever, deterministic mode is defined as one consumer in
// strict client order, and the ring masks instead of dividing so its
// capacity must be a power of two.
TEST(CacheServerTopologyTest, RejectsImpossibleTopologies) {
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 8;

  ServerOptions too_many = options;
  too_many.consumers = 4;
  EXPECT_THROW(CacheServer(too_many, 1), std::invalid_argument);

  ServerOptions det_multi = options;
  det_multi.deterministic = true;
  det_multi.consumers = 2;
  EXPECT_THROW(CacheServer(det_multi, 1), std::invalid_argument);

  for (const std::size_t bad_ring : {std::size_t{0}, std::size_t{1},
                                     std::size_t{96}}) {
    ServerOptions bad = options;
    bad.ring_capacity = bad_ring;
    EXPECT_THROW(CacheServer(bad, 1), std::invalid_argument)
        << "ring_capacity=" << bad_ring;
  }
}

// OwnerOf is the whole concurrency argument: every shard has exactly
// one owner, stripe interleaves, block keeps each owner's shards
// contiguous, and both hand every consumer at least one shard.
TEST(CacheServerTopologyTest, OwnerOfPartitionsShardsExhaustively) {
  ServerOptions options;
  options.shards = 6;
  options.cache_pages = 48;
  for (ShardAssignment assignment :
       {ShardAssignment::kStripe, ShardAssignment::kBlock}) {
    for (unsigned consumers : {1u, 2u, 3u, 4u, 6u}) {
      SCOPED_TRACE(std::string(ShardAssignmentName(assignment)) +
                   " consumers=" + std::to_string(consumers));
      ServerOptions topo = options;
      topo.assignment = assignment;
      topo.consumers = consumers;
      CacheServer server(topo, 1);
      EXPECT_EQ(server.consumers(), consumers);
      std::map<std::uint32_t, std::vector<std::size_t>> owned;
      for (std::size_t s = 0; s < topo.shards; ++s) {
        const std::uint32_t owner = server.OwnerOf(s);
        ASSERT_LT(owner, consumers);
        owned[owner].push_back(s);
        if (assignment == ShardAssignment::kStripe) {
          EXPECT_EQ(owner, s % consumers);
        }
      }
      EXPECT_EQ(owned.size(), consumers) << "an ownerless consumer idles";
      if (assignment == ShardAssignment::kBlock) {
        for (const auto& [owner, shards] : owned) {
          EXPECT_EQ(shards.back() - shards.front() + 1, shards.size())
              << "block ownership must be contiguous";
        }
      }
      server.Stop();
    }
  }
}

// Every explicit topology — pinned consumer counts under both
// assignments, tiny rings forcing producer backpressure — must apply
// every request exactly once with an exact admission ledger.
TEST(CacheServerTopologyTest, ExplicitTopologiesApplyEveryRequestExactlyOnce) {
  const Trace trace = MakeSynthetic("topo", 61, 6000, 3);
  std::uint64_t reads = 0, writes = 0;
  for (const Request& r : trace.requests) {
    (r.op == OpType::kRead ? reads : writes) += 1;
  }
  for (ShardAssignment assignment :
       {ShardAssignment::kStripe, ShardAssignment::kBlock}) {
    for (unsigned consumers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(ShardAssignmentName(assignment)) +
                   " consumers=" + std::to_string(consumers));
      ServerOptions options;
      options.shards = 4;
      options.cache_pages = 96;
      options.policy = PolicyKind::kClic;
      options.clic.window = 400;
      options.consumers = consumers;
      options.assignment = assignment;
      options.ring_capacity = 4;  // tiny: producers hit ring-full a lot
      LoadOptions load;
      load.clients = 3;
      load.batch_size = 33;
      const ServeResult served = ServeTrace(trace, options, load);
      EXPECT_EQ(served.requests, trace.size());
      EXPECT_EQ(served.total.reads, reads);
      EXPECT_EQ(served.total.writes, writes);
      EXPECT_EQ(served.consumers, consumers);
      ASSERT_EQ(served.per_consumer_requests.size(), consumers);
      std::uint64_t per_consumer_total = 0;
      for (const std::uint64_t n : served.per_consumer_requests) {
        per_consumer_total += n;
      }
      EXPECT_EQ(per_consumer_total, trace.size())
          << "owning consumers must account for every applied request";
    }
  }
}

TEST(CacheServerTest, DurationModeLoopsTheChunkAndStops) {
  const Trace trace = MakeSynthetic("timed", 3, 500);
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 32;
  LoadOptions load;
  load.clients = 2;
  load.batch_size = 50;
  load.duration_seconds = 0.05;
  const ServeResult served = ServeTrace(trace, options, load);
  // At least one full pass of each chunk is guaranteed (the duration
  // check sits at batch boundaries), and the run must terminate.
  EXPECT_GE(served.requests, trace.size());
  EXPECT_GT(served.wall_seconds, 0.0);
}

TEST(CacheServerTest, ShardCachePagesSplitsBudget) {
  EXPECT_EQ(ShardCachePages(12'000, 4), 3'000u);
  EXPECT_EQ(ShardCachePages(5, 8), 1u);   // floor of one page per shard
  EXPECT_EQ(ShardCachePages(0, 1), 1u);
  EXPECT_EQ(ShardCachePages(7, 2), 3u);
}

void ExpectExactLedger(const AdmissionStats& a) {
  EXPECT_EQ(a.submitted_batches, a.applied_batches + a.shed_batches +
                                     a.timed_out_batches + a.expired_batches +
                                     a.stopped_batches);
  EXPECT_EQ(a.submitted_requests,
            a.applied_requests + a.shed_requests + a.timed_out_requests +
                a.expired_requests + a.stopped_requests);
}

// Stop() while producers are blocked on a full queue: every blocked
// producer must return kStopped promptly, nothing may hang, and the
// ledger must account for every submitted batch exactly once.
TEST(CacheServerShutdownTest, StopUnblocksProducersStuckOnFullQueue) {
  const Trace trace = MakeSynthetic("stop-full", 47, 64 * 20, 1);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(
      "stall:shard=0,after=0,drains=100000,ms=400", &plan, &error))
      << error;
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 32;
  options.queue_cap = 1;
  options.admission = AdmissionPolicy::kBlock;
  options.fault = &plan;
  CacheServer server(options, 1);
  std::atomic<int> stopped_results{0};
  std::atomic<std::uint64_t> submitted{0};
  std::thread producer([&] {
    // Closed-loop against a 400ms-per-drain consumer with cap 1: the
    // producer wedges on the space CV almost immediately.
    for (std::size_t pos = 0; pos + 64 <= trace.requests.size(); pos += 64) {
      submitted.fetch_add(1);
      const SubmitResult r = server.Submit(0, trace.requests.data() + pos, 64);
      if (r == SubmitResult::kStopped) {
        stopped_results.fetch_add(1);
        break;
      }
    }
    server.Finish(0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  producer.join();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_seconds, 2.0) << "Stop() must not ride out queued stalls";
  EXPECT_EQ(stopped_results.load(), 1)
      << "the blocked producer must observe kStopped";
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.submitted_batches, submitted.load());
  ExpectExactLedger(a);
}

// Stop() while a fault-injected shard is mid-stall: the stall loop
// checks the stop flag every millisecond, so shutdown must complete in
// milliseconds, not after the remaining seconds of injected stall.
TEST(CacheServerShutdownTest, StopReturnsPromptlyFromAStalledShard) {
  const Trace trace = MakeSynthetic("stop-stall", 53, 64 * 4, 1);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan("stall:shard=0,after=0,drains=4,ms=10000",
                                    &plan, &error))
      << error;
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 32;
  options.fault = &plan;
  CacheServer server(options, 1);
  for (std::size_t pos = 0; pos + 64 <= trace.requests.size(); pos += 64) {
    ASSERT_EQ(server.SubmitAsync(0, trace.requests.data() + pos, 64),
              SubmitResult::kEnqueued);
  }
  // Let the consumer enter the 10s stall before pulling the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_seconds, 2.0)
      << "a 10s injected stall must unwind at the next 1ms stop check";
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.submitted_batches, 4u);
  EXPECT_GE(a.stopped_batches, 1u) << "queued batches behind the stall are "
                                      "discarded with exact accounting";
  ExpectExactLedger(a);
}

// Stop() before any submission, double Stop(), and Stop() racing
// Finish(): all must be clean no-ops or orderly aborts.
TEST(CacheServerShutdownTest, StopIsIdempotentAndSafeWhenIdle) {
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 16;
  CacheServer server(options, 2);
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.Submit(0, nullptr, 0), SubmitResult::kApplied);
  const Trace trace = MakeSynthetic("post-stop", 59, 64, 1);
  // Submissions after Stop() are refused as kStopped, not lost.
  EXPECT_EQ(server.Submit(0, trace.requests.data(), 64),
            SubmitResult::kStopped);
  EXPECT_EQ(server.SubmitAsync(1, trace.requests.data(), 64),
            SubmitResult::kStopped);
  ExpectExactLedger(server.TotalAdmission());
}

// Begin/Await only move the wait, not the order: a deterministic run
// that keeps pipeline_depth() batches in flight is bit-identical to
// per-shard sequential Simulate, with an exact ledger.
TEST(CacheServerPipelineTest, PipelinedBatchesMatchPartitionedSimulate) {
  const Trace trace = MakeSynthetic("pipe", 29, 4000, 1);
  ServerOptions options;
  options.shards = 4;
  options.cache_pages = 96;
  options.policy = PolicyKind::kClic;
  options.clic.window = 500;
  options.deterministic = true;
  CacheServer server(options, 1);
  const std::size_t depth = server.pipeline_depth();
  ASSERT_EQ(depth, CacheServer::kPipelineDepth);
  const std::size_t batch = 17;
  std::size_t begun = 0;
  std::size_t awaited = 0;
  for (std::size_t pos = 0; pos < trace.size(); pos += batch) {
    const std::size_t n = std::min(batch, trace.size() - pos);
    ASSERT_EQ(server.Begin(0, begun % depth, trace.requests.data() + pos, n),
              SubmitResult::kEnqueued);
    ++begun;
    if (begun - awaited == depth) {
      ASSERT_EQ(server.Await(0, awaited++ % depth), SubmitResult::kApplied);
    }
  }
  while (awaited < begun) {
    ASSERT_EQ(server.Await(0, awaited++ % depth), SubmitResult::kApplied);
  }
  server.Finish(0);
  server.Shutdown();
  ExpectSameStats(server.TotalStats(),
                  PartitionedSimulate(trace, options).total);
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.applied_batches, begun);
  ExpectExactLedger(a);
}

TEST(CacheServerPipelineTest, DepthClampsToQueueCapAndRingCapacity) {
  const auto depth = [](const ServerOptions& options) {
    CacheServer server(options, 1);
    server.Stop();  // no client will Finish
    return server.pipeline_depth();
  };
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 16;
  EXPECT_EQ(depth(options), CacheServer::kPipelineDepth);
  options.queue_cap = 2;
  EXPECT_EQ(depth(options), 2u);
  options.queue_cap = 0;
  options.ring_capacity = 4;
  EXPECT_EQ(depth(options), 4u);
}

// Stop() with a full pipeline in flight: every Await returns, each
// batch lands in exactly one ledger bucket.
TEST(CacheServerPipelineTest, StopResolvesEveryInFlightSlot) {
  const Trace trace = MakeSynthetic("pipe-stop", 61, 64 * 16, 1);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan("stall:shard=0,after=0,drains=100,ms=20",
                                    &plan, &error))
      << error;
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 32;
  options.fault = &plan;
  CacheServer server(options, 1);
  const std::size_t depth = server.pipeline_depth();
  for (std::size_t s = 0; s < depth; ++s) {
    ASSERT_EQ(server.Begin(0, s, trace.requests.data() + 64 * s, 64),
              SubmitResult::kEnqueued);
  }
  std::thread stopper([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.Stop();
  });
  std::size_t applied = 0;
  std::size_t stopped = 0;
  for (std::size_t s = 0; s < depth; ++s) {
    const SubmitResult r = server.Await(0, s);
    applied += r == SubmitResult::kApplied ? 1 : 0;
    stopped += r == SubmitResult::kStopped ? 1 : 0;
  }
  stopper.join();
  EXPECT_EQ(applied + stopped, depth);
  EXPECT_GE(stopped, 1u) << "a 20ms-per-drain shard cannot finish 16 "
                            "batches in 30ms";
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.applied_batches, applied);
  EXPECT_EQ(a.stopped_batches, stopped);
  ExpectExactLedger(a);
}

}  // namespace
}  // namespace clic::server
