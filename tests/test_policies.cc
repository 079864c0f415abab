#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/trace.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"
#include "policies/lru.h"
#include "policies/mq.h"
#include "policies/tq.h"

namespace clic {
namespace {

Trace ReadTrace(std::initializer_list<PageId> pages) {
  Trace trace;
  const HintSetId h = trace.hints->Intern(HintVector{0, {0}});
  for (PageId p : pages) {
    trace.requests.push_back(Request{p, h, 0, OpType::kRead,
                                     WriteKind::kNone});
  }
  return trace;
}

TEST(LruTest, HandCheckedHitSequence) {
  // Cache of 2 pages. Accesses: 1 2 1 3 2 3 1
  //   1 -> miss {1}
  //   2 -> miss {2,1}
  //   1 -> hit  {1,2}
  //   3 -> miss {3,1}  (2 evicted)
  //   2 -> miss {2,3}  (1 evicted)
  //   3 -> hit  {3,2}
  //   1 -> miss {1,3}  (2 evicted)
  const Trace trace = ReadTrace({1, 2, 1, 3, 2, 3, 1});
  LruPolicy lru(2);
  const SimResult result = Simulate(trace, lru);
  EXPECT_EQ(result.total.reads, 7u);
  EXPECT_EQ(result.total.read_hits, 2u);
}

TEST(LruTest, SingleSlotCacheNeverHitsOnAlternation) {
  const Trace trace = ReadTrace({1, 2, 1, 2, 1, 2});
  LruPolicy lru(1);
  const SimResult result = Simulate(trace, lru);
  EXPECT_EQ(result.total.read_hits, 0u);
}

TEST(LruTest, RepeatsAlwaysHitWhenCacheFits) {
  const Trace trace = ReadTrace({1, 2, 3, 1, 2, 3, 1, 2, 3});
  LruPolicy lru(3);
  const SimResult result = Simulate(trace, lru);
  EXPECT_EQ(result.total.read_hits, 6u);
}

TEST(TqTest, ReplacementWritesAreProtected) {
  // Cache of 2. A replacement-written page survives a scan of plain
  // reads that would evict it under pure LRU.
  Trace trace;
  const HintSetId h = trace.hints->Intern(HintVector{0, {0}});
  auto read = [&](PageId p) {
    trace.requests.push_back(Request{p, h, 0, OpType::kRead,
                                     WriteKind::kNone});
  };
  auto rwrite = [&](PageId p) {
    trace.requests.push_back(Request{p, h, 0, OpType::kWrite,
                                     WriteKind::kReplacement});
  };
  rwrite(1);  // page 1 protected
  read(2);
  read(3);
  read(4);    // plain queue churns, page 1 stays
  read(1);    // hit under TQ, miss under LRU
  const Trace& t = trace;

  TqPolicy tq(2);
  const SimResult tq_result = Simulate(t, tq);
  EXPECT_EQ(tq_result.total.read_hits, 1u);

  LruPolicy lru(2);
  const SimResult lru_result = Simulate(t, lru);
  EXPECT_EQ(lru_result.total.read_hits, 0u);
}

TEST(OptTest, HandCheckedBelady) {
  // Cache of 2. Accesses: 1 2 3 1 2 3
  // Belady: after {1,2}, page 3 evicts page 2 (2's next use at t=4 is
  // sooner than 1's at t=3? No: 1 recurs at t=3, 2 at t=4 -> evict the
  // farther one, which is 2... keep checking: OPT achieves 2 hits here:
  //   1 miss {1}, 2 miss {1,2}, 3 miss evict 2 {1,3},
  //   1 hit, 2 miss evict 1 or 3 (neither recurs; 1 recurs never, 3 at
  //   t=5) -> evict 1 {2,3}, 3 hit.
  const Trace trace = ReadTrace({1, 2, 3, 1, 2, 3});
  auto opt = MakePolicy(PolicyKind::kOpt, 2, &trace, ClicOptions{});
  const SimResult result = Simulate(trace, *opt);
  EXPECT_EQ(result.total.read_hits, 2u);
}

TEST(PolicyZooTest, OptDominatesAndAllStayConsistent) {
  // A mixed synthetic workload; every policy must produce hits within
  // [0, OPT] and identical read/write accounting.
  Trace trace;
  Rng rng(123);
  ZipfGenerator zipf(500, 0.8);
  const HintSetId h = trace.hints->Intern(HintVector{0, {0}});
  for (int i = 0; i < 20'000; ++i) {
    Request r;
    r.page = zipf(rng);
    r.hint_set = h;
    if (rng.Chance(0.25)) {
      r.op = OpType::kWrite;
      r.write_kind =
          rng.Chance(0.5) ? WriteKind::kReplacement : WriteKind::kRecovery;
    }
    trace.requests.push_back(r);
  }

  ClicOptions options;
  options.window = 2'000;
  auto opt = MakePolicy(PolicyKind::kOpt, 64, &trace, options);
  const SimResult opt_result = Simulate(trace, *opt);
  ASSERT_GT(opt_result.total.read_hits, 0u);

  for (PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kClock, PolicyKind::kTwoQ,
        PolicyKind::kMq, PolicyKind::kArc, PolicyKind::kTq,
        PolicyKind::kClic}) {
    auto policy = MakePolicy(kind, 64, &trace, options);
    const SimResult result = Simulate(trace, *policy);
    EXPECT_EQ(result.total.reads, opt_result.total.reads)
        << PolicyName(kind);
    EXPECT_EQ(result.total.writes, opt_result.total.writes)
        << PolicyName(kind);
    EXPECT_LE(result.total.read_hits + result.total.write_hits,
              opt_result.total.read_hits + opt_result.total.write_hits)
        << PolicyName(kind) << " beat OPT, which cannot happen";
    EXPECT_GT(result.total.read_hits, 0u) << PolicyName(kind);
  }
}

TEST(PolicyZooTest, TinyCachesDoNotCrash) {
  const Trace trace = ReadTrace({1, 2, 3, 4, 1, 2, 3, 4, 1});
  for (PolicyKind kind :
       {PolicyKind::kOpt, PolicyKind::kTq, PolicyKind::kLru,
        PolicyKind::kArc, PolicyKind::kClic, PolicyKind::kClock,
        PolicyKind::kTwoQ, PolicyKind::kMq}) {
    auto policy = MakePolicy(kind, 1, &trace, ClicOptions{});
    const SimResult result = Simulate(trace, *policy);
    EXPECT_EQ(result.total.reads, trace.size()) << PolicyName(kind);
  }
}

// MQ demotes the tail of a higher queue only when its lifetime has
// *strictly* expired (expire < now, not <=). The two runs below differ
// only in whether the insertion burst happens at the boundary seq
// (expire == now: no demotion) or one past it (expire < now: demotion),
// and end with opposite residents.
//
// Shared prefix, cache of 3 pages, lifetime 10:
//   seq0 A miss (q0, expire 10), seq1 A hit (freq 2 -> q1, expire 11)
//   seq2 B miss (q0, expire 12), seq3 B hit (freq 2 -> q1, expire 13)
//   seq4 D miss (q0, expire 14)          queues: q1=[B,A] q0=[D]
TEST(MqTest, LifetimeExpirationBoundaryIsStrict) {
  const HintSetId h = 0;
  auto prefix = [&](MqPolicy& mq) {
    SeqNum seq = 0;
    for (PageId p : {1u, 1u, 2u, 2u, 3u}) {  // A=1 B=2 D=3
      mq.Access(Request{p, h, 0, OpType::kRead, WriteKind::kNone}, seq++);
    }
  };
  auto access = [&](MqPolicy& mq, PageId p, SeqNum seq) {
    return mq.Access(Request{p, h, 0, OpType::kRead, WriteKind::kNone}, seq);
  };

  {
    // Boundary run: inserts at seq 11, where A's expire (11) is NOT
    // strictly older. No demotion: the two misses evict q0's D then the
    // freshly inserted C, leaving A resident.
    MqPolicy mq(3, /*lifetime=*/10);
    prefix(mq);
    EXPECT_FALSE(access(mq, 4, 11));  // C: evicts D (q0 tail)
    EXPECT_FALSE(access(mq, 5, 11));  // E: evicts C, not the q1 pages
    EXPECT_TRUE(access(mq, 1, 11)) << "A must survive at the boundary";
    EXPECT_FALSE(access(mq, 4, 12)) << "C was the second victim";
  }
  {
    // One past the boundary: at seq 12, A's expire (11) < now, so
    // Adjust demotes A to q0 (MRU side). The first miss still evicts
    // D, but the second now takes A — the demoted page — and C stays.
    MqPolicy mq(3, /*lifetime=*/10);
    prefix(mq);
    EXPECT_FALSE(access(mq, 4, 12));  // C: demotes A, evicts D
    EXPECT_FALSE(access(mq, 5, 13));  // E: evicts the demoted A
    EXPECT_TRUE(access(mq, 4, 13)) << "C must survive past the boundary";
    EXPECT_FALSE(access(mq, 1, 14)) << "A was demoted and evicted";
  }
}

TEST(SimulatorTest, PerClientAccounting) {
  Trace trace;
  const HintSetId h = trace.hints->Intern(HintVector{0, {0}});
  // Client 0: pages 1,1 (one hit). Client 1: pages 2,3 (no hits).
  trace.requests = {
      {1, h, 0, OpType::kRead, WriteKind::kNone},
      {1, h, 0, OpType::kRead, WriteKind::kNone},
      {2, h, 1, OpType::kRead, WriteKind::kNone},
      {3, h, 1, OpType::kRead, WriteKind::kNone},
  };
  LruPolicy lru(10);
  const SimResult result = Simulate(trace, lru);
  ASSERT_EQ(result.per_client.size(), 2u);
  EXPECT_DOUBLE_EQ(result.per_client.at(0).ReadHitRatio(), 0.5);
  EXPECT_DOUBLE_EQ(result.per_client.at(1).ReadHitRatio(), 0.0);
  EXPECT_EQ(result.total.reads, 4u);
  EXPECT_EQ(result.total.read_hits, 1u);
}

}  // namespace
}  // namespace clic
