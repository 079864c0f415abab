#include "server/cache_server.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/trace.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"
#include "tests/synthetic_trace.h"

namespace clic::server {
namespace {

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
// counts {1, 2, 4} and both LRU and CLIC, across client counts and at
// one consumer, two, and one per shard: the drivers run one client at a
// time, and FIFO rings with one owner per shard keep each shard's
// partition in stream order whatever the topology.
TEST(CacheServerTest, DeterministicModeMatchesPartitionedSimulate) {
  const Trace trace = MakeSynthetic("det", 11, 4000, 3);
  ClicOptions clic;
  clic.window = 500;
  clic.outqueue_per_page = 2.0;
  for (PolicyKind policy : {PolicyKind::kLru, PolicyKind::kClic}) {
    for (unsigned shards : {1u, 2u, 4u}) {
      for (unsigned consumers : std::set<unsigned>{1u, 2u, shards}) {
        if (consumers > shards) continue;
        for (std::size_t clients : {1u, 3u}) {
          SCOPED_TRACE(std::string(PolicyName(policy)) + " shards=" +
                       std::to_string(shards) + " consumers=" +
                       std::to_string(consumers) + " clients=" +
                       std::to_string(clients));
          ServerOptions options;
          options.shards = shards;
          options.consumers = consumers;
          options.cache_pages = 96;
          options.policy = policy;
          options.clic = clic;
          options.deterministic = true;
          LoadOptions load;
          load.clients = clients;
          load.batch_size = 17;  // odd size: batch boundaries land anywhere
          const ServeResult served = ServeTrace(trace, options, load);
          EXPECT_EQ(served.consumers, consumers);
          EXPECT_EQ(
              ResultMismatch(served, PartitionedSimulate(trace, options)), "");
          EXPECT_EQ(served.requests, trace.size());
          EXPECT_TRUE(served.admission.Balanced())
              << served.admission.Describe();
        }
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
  EXPECT_EQ(ResultMismatch(a, b), "");
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
  options.consumers = 3;
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
  EXPECT_GE(served.timing.throughput_rps, 0.0);
  EXPECT_LE(served.timing.p50_us, served.timing.p99_us);
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
  EXPECT_EQ(ResultMismatch(served, PartitionedSimulate(trace, options)), "");
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
}

// Ownership topology validation: a consumer that owns zero shards
// would idle forever.
TEST(CacheServerTopologyTest, RejectsImpossibleTopologies) {
  ServerOptions options;
  options.shards = 2;
  options.cache_pages = 8;

  ServerOptions too_many = options;
  too_many.consumers = 4;
  EXPECT_THROW(CacheServer(too_many, 1), std::invalid_argument);
}

// OwnerOf is the whole concurrency argument: every shard has exactly
// one owner, neighbouring shards land on different consumers, and
// every consumer owns at least one shard.
TEST(CacheServerTopologyTest, OwnerOfPartitionsShardsExhaustively) {
  ServerOptions options;
  options.shards = 6;
  options.cache_pages = 48;
  for (unsigned consumers : {1u, 2u, 3u, 4u, 6u}) {
    SCOPED_TRACE("consumers=" + std::to_string(consumers));
    ServerOptions topo = options;
    topo.consumers = consumers;
    CacheServer server(topo, 1);
    EXPECT_EQ(server.consumers(), consumers);
    std::set<std::size_t> owners;
    for (std::size_t s = 0; s < topo.shards; ++s) {
      EXPECT_EQ(server.OwnerOf(s), s % consumers);
      owners.insert(server.OwnerOf(s));
    }
    EXPECT_EQ(owners.size(), consumers) << "an ownerless consumer idles";
    server.Stop();
  }
}

// Every explicit consumer count must apply every request exactly once,
// and the owning consumers' per-core counts must add up to it.
TEST(CacheServerTopologyTest, ExplicitTopologiesApplyEveryRequestExactlyOnce) {
  const Trace trace = MakeSynthetic("topo", 61, 6000, 3);
  std::uint64_t reads = 0, writes = 0;
  for (const Request& r : trace.requests) {
    (r.op == OpType::kRead ? reads : writes) += 1;
  }
  for (unsigned consumers : {1u, 2u, 4u}) {
    SCOPED_TRACE("consumers=" + std::to_string(consumers));
    ServerOptions options;
    options.shards = 4;
    options.cache_pages = 96;
    options.policy = PolicyKind::kClic;
    options.clic.window = 400;
    options.consumers = consumers;
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

TEST(CacheServerTest, ShardCachePagesSplitsBudget) {
  EXPECT_EQ(ShardCachePages(12'000, 4), 3'000u);
  EXPECT_EQ(ShardCachePages(5, 8), 1u);   // floor of one page per shard
  EXPECT_EQ(ShardCachePages(0, 1), 1u);
  EXPECT_EQ(ShardCachePages(7, 2), 3u);
}

// Stop() while a producer waits in Submit for a batch wedged behind a
// 400ms-per-drain stall: the producer must return kStopped promptly,
// nothing may hang, and the ledger must account for every submitted
// batch exactly once.
TEST(CacheServerShutdownTest, StopUnblocksAProducerAwaitingAStalledBatch) {
  const Trace trace = MakeSynthetic("stop-full", 47, 64 * 20, 1);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(
      "stall:shard=0,after=0,drains=100000,ms=400", &plan, &error))
      << error;
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 32;
  options.fault = &plan;
  CacheServer server(options, 1);
  std::atomic<int> stopped_results{0};
  std::atomic<std::uint64_t> submitted{0};
  std::thread producer([&] {
    // Closed loop against a 400ms-per-drain consumer: the producer's
    // first Submit waits out the stall in Await.
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
      << "the waiting producer must observe kStopped";
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.submitted_batches, submitted.load());
  EXPECT_TRUE(a.Balanced()) << a.Describe();
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
  for (std::size_t slot = 0; slot < 4; ++slot) {
    ASSERT_EQ(server.Begin(0, slot, trace.requests.data() + 64 * slot, 64),
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
  for (std::size_t slot = 0; slot < 4; ++slot) {
    const SubmitResult r = server.Await(0, slot);
    EXPECT_TRUE(r == SubmitResult::kApplied || r == SubmitResult::kStopped)
        << "slot " << slot;
  }
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.submitted_batches, 4u);
  EXPECT_GE(a.stopped_batches, 1u) << "queued batches behind the stall are "
                                      "discarded with exact accounting";
  EXPECT_TRUE(a.Balanced()) << a.Describe();
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
  EXPECT_EQ(server.Begin(1, 3, trace.requests.data(), 64),
            SubmitResult::kStopped);
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.stopped_batches, 2u);
  EXPECT_TRUE(a.Balanced()) << a.Describe();
}

// ServeTrace keeps kPipelineDepth batches in flight per client, so
// batches queue behind a slow drain: with a 20 ms stall on every drain
// and a 5 ms batch deadline, queued batches expire. A driver with one
// batch in flight would never queue one.
TEST(CacheServerPipelineTest, ServeTraceQueuesBatchesBehindAStall) {
  const Trace trace = MakeSynthetic("depth", 71, 40 * 8, 1);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(
      "stall:shard=0,after=0,drains=1000000,ms=20", &plan, &error))
      << error;
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 32;
  options.batch_deadline_ms = 5.0;
  options.fault = &plan;
  LoadOptions load;
  load.batch_size = 8;
  const ServeResult served = ServeTrace(trace, options, load);
  const AdmissionStats& a = served.admission;
  EXPECT_EQ(a.submitted_batches, 40u);
  EXPECT_GE(a.expired_batches, 1u) << a.Describe();
  EXPECT_TRUE(a.Balanced()) << a.Describe();
}

// A client that keeps its ring full must not starve another client of
// their one consumer: a visit pops at most one ring's worth. Two
// clients keep kPipelineDepth batches in flight against a consumer that
// stalls 1 ms on every drain. Completion order comes from one shared
// ticket counter, taken as each Await returns: each client's first
// batch must complete before the other client's last.
TEST(CacheServerPipelineTest, FullRingsShareOneConsumer) {
  constexpr std::size_t kBatches = 100;
  constexpr std::size_t kDepth = CacheServer::kPipelineDepth;
  const Trace trace = MakeSynthetic("fair", 67, kBatches * 8, 1);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(
      "stall:shard=0,after=0,drains=1000000,ms=1", &plan, &error))
      << error;
  ServerOptions options;
  options.shards = 1;
  options.cache_pages = 32;
  options.consumers = 1;
  options.fault = &plan;
  CacheServer server(options, 2);
  std::atomic<std::size_t> next_ticket{0};
  std::array<std::vector<std::size_t>, 2> tickets;
  std::atomic<int> started{0};
  const auto drive = [&](std::size_t c) {
    // Both clients start together, so neither runs alone for a while.
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    const auto await = [&](std::size_t b) {
      EXPECT_EQ(server.Await(c, b % kDepth), SubmitResult::kApplied);
      tickets[c].push_back(next_ticket.fetch_add(1));
    };
    for (std::size_t b = 0; b < kBatches; ++b) {
      if (b >= kDepth) await(b - kDepth);
      EXPECT_EQ(server.Begin(c, b % kDepth, trace.requests.data() + 8 * b, 8),
                SubmitResult::kEnqueued);
    }
    for (std::size_t b = kBatches - kDepth; b < kBatches; ++b) await(b);
    server.Finish(c);
  };
  std::thread first(drive, 0);
  std::thread second(drive, 1);
  first.join();
  second.join();
  server.Shutdown();
  ASSERT_EQ(tickets[0].size(), kBatches);
  ASSERT_EQ(tickets[1].size(), kBatches);
  EXPECT_LT(tickets[1].front(), tickets[0].back())
      << "client 0 held the consumer until its last batch";
  EXPECT_LT(tickets[0].front(), tickets[1].back())
      << "client 1 held the consumer until its last batch";
  const AdmissionStats a = server.TotalAdmission();
  EXPECT_EQ(a.applied_batches, 2 * kBatches);
  EXPECT_TRUE(a.Balanced()) << a.Describe();
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
  const std::size_t depth = CacheServer::kPipelineDepth;
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
  EXPECT_TRUE(a.Balanced()) << a.Describe();
}

}  // namespace
}  // namespace clic::server
