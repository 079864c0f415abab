#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/trace.h"
#include "policies/lru.h"

namespace clic {
namespace {

Trace TraceWithClients(std::initializer_list<ClientId> clients) {
  Trace trace;
  const HintSetId h = trace.hints->Intern(HintVector{0, {0}});
  PageId page = 0;
  for (ClientId c : clients) {
    // Two accesses to the same page per client: one miss, one hit.
    trace.requests.push_back(Request{page, h, c, OpType::kRead,
                                     WriteKind::kNone});
    trace.requests.push_back(Request{page, h, c, OpType::kRead,
                                     WriteKind::kNone});
    ++page;
  }
  return trace;
}

// Regression: the per-client accumulator used to be sized max_client+1
// unconditionally, so one stray large ClientId in a short trace paid
// for the whole id space. The density bound must route such traces
// through the map path and still produce identical accounting.
TEST(SimulatorTest, SparseClientIdsDoNotInflateAccumulators) {
  const Trace trace = TraceWithClients({0, 65535});  // 4 requests total
  LruPolicy lru(16);
  const SimResult result = Simulate(trace, lru);
  EXPECT_EQ(result.total.reads, 4u);
  EXPECT_EQ(result.total.read_hits, 2u);
  ASSERT_EQ(result.per_client.size(), 2u);
  EXPECT_EQ(result.per_client.at(0).reads, 2u);
  EXPECT_EQ(result.per_client.at(0).read_hits, 1u);
  EXPECT_EQ(result.per_client.at(65535).reads, 2u);
  EXPECT_EQ(result.per_client.at(65535).read_hits, 1u);
}

TEST(SimulatorTest, DenseAndSparsePathsAgree) {
  // Same access pattern, once with dense client ids (flat-vector path)
  // and once with the ids spread across the full ClientId range (map
  // path). Hit accounting must be identical field for field.
  const Trace dense = TraceWithClients({0, 1, 2, 3});
  const Trace sparse = TraceWithClients({0, 20000, 40000, 60000});
  LruPolicy lru_a(16);
  LruPolicy lru_b(16);
  const SimResult a = Simulate(dense, lru_a);
  const SimResult b = Simulate(sparse, lru_b);
  EXPECT_EQ(a.total.reads, b.total.reads);
  EXPECT_EQ(a.total.read_hits, b.total.read_hits);
  ASSERT_EQ(a.per_client.size(), b.per_client.size());
  const std::vector<ClientId> dense_ids = {0, 1, 2, 3};
  const std::vector<ClientId> sparse_ids = {0, 20000, 40000, 60000};
  for (std::size_t i = 0; i < dense_ids.size(); ++i) {
    const CacheStats& da = a.per_client.at(dense_ids[i]);
    const CacheStats& db = b.per_client.at(sparse_ids[i]);
    EXPECT_EQ(da.reads, db.reads);
    EXPECT_EQ(da.read_hits, db.read_hits);
    EXPECT_EQ(da.writes, db.writes);
    EXPECT_EQ(da.write_hits, db.write_hits);
  }
}

// ResultMismatch is the failure path of clic_serve --verify: it must
// name each kind of divergence, not just report that one exists.
TEST(SimulatorTest, ResultMismatchNamesEveryDivergence) {
  SimResult want;
  want.total = {/*reads=*/10, /*writes=*/4, /*read_hits=*/6, /*write_hits=*/2};
  want.per_client[0] = {5, 2, 3, 1};
  want.per_client[1] = {5, 2, 3, 1};
  EXPECT_EQ(ResultMismatch(want, want), "");

  SimResult got = want;
  got.total.read_hits = 7;           // a diverging total
  got.per_client[0].write_hits = 0;  // a diverging client
  got.per_client.erase(1);           // a missing client
  got.per_client[9] = {1, 0, 0, 0};  // an unexpected client
  EXPECT_EQ(ResultMismatch(got, want),
            "total: got reads=10 writes=4 read_hits=7 write_hits=2, want "
            "reads=10 writes=4 read_hits=6 write_hits=2\n"
            "client 0: got reads=5 writes=2 read_hits=3 write_hits=0, want "
            "reads=5 writes=2 read_hits=3 write_hits=1\n"
            "client 1 missing: want reads=5 writes=2 read_hits=3 "
            "write_hits=1\n"
            "unexpected client 9: got reads=1 writes=0 read_hits=0 "
            "write_hits=0\n");
}

TEST(SimulatorTest, EmptyTraceYieldsZeroStats) {
  Trace trace;
  LruPolicy lru(4);
  const SimResult result = Simulate(trace, lru);
  EXPECT_EQ(result.total.reads + result.total.writes, 0u);
  EXPECT_TRUE(result.per_client.empty());
}

}  // namespace
}  // namespace clic
