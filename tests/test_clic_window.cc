// Hand-computed checks of CLIC's Equation-2 window analysis: priority =
// re-references credited to a hint set divided by the time-averaged
// number of tracked pages annotated with it.
#include "core/clic.h"

#include <gtest/gtest.h>

#include <map>

#include "core/hint_tree.h"

namespace clic {
namespace {

class Driver {
 public:
  explicit Driver(ClicPolicy* policy) : policy_(policy) {}
  bool Read(PageId page, HintSetId hint) {
    Request r;
    r.page = page;
    r.hint_set = hint;
    return policy_->Access(r, seq_++);
  }

 private:
  ClicPolicy* policy_;
  SeqNum seq_ = 0;
};

std::map<HintSetId, double> PriorityMap(const ClicPolicy& policy) {
  std::map<HintSetId, double> out;
  for (const auto& [hint, priority] : policy.Priorities()) {
    out[hint] = priority;
  }
  return out;
}

ClicOptions BareOptions(std::uint64_t window) {
  ClicOptions options;
  options.window = window;
  options.decay = 1.0;
  options.outqueue_per_page = 0.0;
  options.charge_metadata = false;
  return options;
}

constexpr HintSetId kA = 0, kB = 1;

TEST(ClicWindowTest, HandComputedEquation2) {
  // Cache of 4 (no evictions). Requests, with seq:
  //   0: p1 hint A (miss)   cur_A 0->1
  //   1: p2 hint A (miss)   cur_A 1->2, area_A += 1*1
  //   2: p1 hint B (hit)    R_A += 1; area_A += 2*1; cur_A->1; cur_B->1
  //   3: p2 hint A (hit)    R_A += 1 (annotation stays A)
  // ForceEndWindow at end = 4, L = 4:
  //   area_A += 1*(4-2) -> 5, S_A = 5/4, priority_A = 2/(5/4) = 1.6
  //   area_B  = 1*(4-2) -> 2, S_B = 1/2, priority_B = 0/(1/2) = 0
  ClicPolicy clic(4, BareOptions(100));
  Driver d(&clic);
  EXPECT_FALSE(d.Read(1, kA));
  EXPECT_FALSE(d.Read(2, kA));
  EXPECT_TRUE(d.Read(1, kB));
  EXPECT_TRUE(d.Read(2, kA));
  clic.ForceEndWindow();

  const auto priorities = PriorityMap(clic);
  ASSERT_EQ(priorities.size(), 2u);
  EXPECT_DOUBLE_EQ(priorities.at(kA), 1.6);
  EXPECT_DOUBLE_EQ(priorities.at(kB), 0.0);
}

TEST(ClicWindowTest, ForceEndWindowBeforeAnyRequestOnlyReschedules) {
  // No request yet: the window ends at seq 0 and holds nothing, so the
  // call closes no window and, with the adaptive window on, counts no
  // early close and keeps the window's length.
  ClicOptions adaptive_options = BareOptions(100);
  adaptive_options.adaptive_window = true;
  ClicPolicy adaptive(4, adaptive_options);
  adaptive.ForceEndWindow();
  EXPECT_EQ(adaptive.windows_completed(), 0u);
  EXPECT_EQ(adaptive.early_closes(), 0u);
  EXPECT_EQ(adaptive.effective_window(), 100u);

  // And the first window still starts at seq 0: the
  // HandComputedEquation2 requests give the same priorities.
  ClicPolicy clic(4, BareOptions(100));
  clic.ForceEndWindow();
  EXPECT_EQ(clic.windows_completed(), 0u);
  EXPECT_TRUE(clic.Priorities().empty());
  Driver d(&clic);
  EXPECT_FALSE(d.Read(1, kA));
  EXPECT_FALSE(d.Read(2, kA));
  EXPECT_TRUE(d.Read(1, kB));
  EXPECT_TRUE(d.Read(2, kA));
  clic.ForceEndWindow();
  EXPECT_EQ(clic.windows_completed(), 1u);
  const auto priorities = PriorityMap(clic);
  ASSERT_EQ(priorities.size(), 2u);
  EXPECT_DOUBLE_EQ(priorities.at(kA), 1.6);
  EXPECT_DOUBLE_EQ(priorities.at(kB), 0.0);
}

TEST(ClicWindowTest, OutqueueReReferencesCount) {
  // Cache of 1, outqueue of 2 entries. p1 is evicted into the outqueue
  // and re-referenced from there: the re-reference must still credit A.
  //   0: p1 A miss            cur_A 0->1
  //   1: p2 A miss, p1 -> outq  cur_A 1->2, area_A += 1
  //   2: p1 A miss (outq hit), R_A += 1, p2 -> outq
  // End at 3: area_A += 2*(3-1) -> 5, S_A = 5/3, priority = 1/(5/3).
  ClicOptions options = BareOptions(100);
  options.outqueue_per_page = 2.0;
  ClicPolicy clic(1, options);
  EXPECT_EQ(clic.outqueue_capacity(), 2u);
  Driver d(&clic);
  EXPECT_FALSE(d.Read(1, kA));
  EXPECT_FALSE(d.Read(2, kA));
  EXPECT_FALSE(d.Read(1, kA));  // a miss, but a tracked re-reference
  clic.ForceEndWindow();

  const auto priorities = PriorityMap(clic);
  EXPECT_DOUBLE_EQ(priorities.at(kA), 1.0 / (5.0 / 3.0));
}

TEST(ClicWindowTest, DecayBlendsWindows) {
  // Window 1 replays the HandComputedEquation2 stream (acc_A = 2, 1.25).
  // Window 2 has no A re-references and one A-annotated page (p2):
  //   R = 0, S = 4/4 = 1.
  // With decay 0.5: acc_r = 0 + 0.5*2 = 1, acc_s = 1 + 0.5*1.25 = 1.625.
  ClicOptions options = BareOptions(4);
  options.decay = 0.5;
  ClicPolicy clic(8, options);
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(2, kA);
  d.Read(1, kB);
  d.Read(2, kA);
  // Window boundary fires on the next access (seq 4). Four fresh pages
  // annotated with B keep A's stats quiet in window 2.
  d.Read(3, kB);
  d.Read(4, kB);
  d.Read(5, kB);
  d.Read(6, kB);
  clic.ForceEndWindow();
  EXPECT_EQ(clic.windows_completed(), 2u);

  const auto priorities = PriorityMap(clic);
  EXPECT_DOUBLE_EQ(priorities.at(kA), 1.0 / 1.625);
}

TEST(ClicWindowTest, HighPriorityHintsSurviveEviction) {
  // Window 1 teaches CLIC that hint A's pages are re-referenced and
  // hint B's are not. In window 2 a new page must evict B's page, not
  // A's, even though A's page is older in LRU terms.
  ClicPolicy clic(2, BareOptions(6));
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(2, kB);
  d.Read(1, kA);
  d.Read(1, kA);
  d.Read(1, kA);
  d.Read(1, kA);
  // seq 6 starts window 2 (A has positive priority, B has zero).
  EXPECT_FALSE(d.Read(3, kB));  // miss; must evict page 2 (hint B)
  EXPECT_TRUE(d.Read(1, kA));   // A's page survived
  EXPECT_FALSE(d.Read(2, kB));  // B's page did not
}

TEST(ClicWindowTest, ColdStartEvictsGlobalLru) {
  // Before the first window completes there are no priorities; CLIC
  // must degrade to plain LRU.
  ClicPolicy clic(2, BareOptions(1'000));
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(2, kB);
  EXPECT_FALSE(d.Read(3, kA));  // evicts page 1 (global LRU)
  EXPECT_TRUE(d.Read(2, kB));
  EXPECT_FALSE(d.Read(1, kA));
}

TEST(ClicWindowTest, TopKTrackerGatesPriorities) {
  // Two hint sets, both genuinely re-referenced, but hint B is rare and
  // the Space-Saving tracker only has one counter: B must get priority 0.
  ClicOptions options = BareOptions(100);
  options.tracker = TrackerKind::kSpaceSaving;
  options.top_k = 1;
  ClicPolicy clic(16, options);
  Driver d(&clic);
  d.Read(2, kB);
  d.Read(2, kB);
  for (int i = 0; i < 10; ++i) d.Read(1, kA);
  clic.ForceEndWindow();

  const auto priorities = PriorityMap(clic);
  EXPECT_GT(priorities.at(kA), 0.0);
  EXPECT_DOUBLE_EQ(priorities.at(kB), 0.0);
}

TEST(ClicWindowTest, MetadataChargeShrinksCache) {
  ClicOptions options = BareOptions(100);
  options.outqueue_per_page = 5.0;
  options.charge_metadata = true;
  ClicPolicy charged(1'000, options);
  // 5000 outqueue entries at 1% of a page each = 50 pages of metadata.
  EXPECT_EQ(charged.outqueue_capacity(), 5'000u);
  EXPECT_EQ(charged.cache_capacity(), 950u);

  options.charge_metadata = false;
  ClicPolicy free_meta(1'000, options);
  EXPECT_EQ(free_meta.cache_capacity(), 1'000u);
}

TEST(ClicWindowTest, IrregularClosesDecayUntouchedHistoryOncePerWindow) {
  // With adaptive mode on, ForceEndWindow() closes windows early, so
  // windows_completed_ advances irregularly relative to seq. A hint set
  // left untouched through 40 such windows must (1) keep its committed
  // priority bit-exactly (each close scales both accumulators by the
  // same factor and carries the priority), and (2) when finally
  // re-touched, carry accumulators equal to the per-window recurrence —
  // one multiplication by decay per completed window, no window skipped
  // or double-counted.
  //
  // Window 1 (length 16) hand-computed like HandComputedEquation2:
  //   seq 0: p1 A miss, seq 1: p2 A miss (area_A += 1)
  //   seq 2: p1 A hit (R_A=1), seq 3: p2 A hit (R_A=2)
  //   seq 4-7: p3..p6 B misses; p5/p6 evict p1/p2 (cache 4):
  //     area_A += 2*5 (seq 6) + 1*1 (seq 7) -> 12, cur_A = 0
  //   seq 8-15: p3..p6 hit twice each (R_B = 8)
  //   close at seq 16: win_r_A = 2, win_s_A = 12/16, priority_A = 8/3.
  ClicOptions options = BareOptions(16);
  options.decay = 0.5;
  options.adaptive_window = true;
  options.churn_threshold = 0.0;  // no checkpoints; closes are forced
  options.min_window = 16;        // pin the effective window at 16
  options.max_window = 16;
  ClicPolicy clic(4, options);
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(2, kA);
  d.Read(1, kA);
  d.Read(2, kA);
  for (PageId p = 3; p <= 6; ++p) d.Read(p, kB);
  for (int rep = 0; rep < 2; ++rep) {
    for (PageId p = 3; p <= 6; ++p) d.Read(p, kB);
  }
  d.Read(3, kB);  // seq 16: closes window 1 at its scheduled boundary
  ASSERT_EQ(clic.windows_completed(), 1u);
  const double committed_a = PriorityMap(clic).at(kA);
  EXPECT_DOUBLE_EQ(committed_a, 2.0 / 0.75);

  // Drive 40 irregular windows of pure-B traffic (all hits, so A's
  // pages stay evicted and A is never a candidate). Every forced close
  // is an early close; the stored priority of untouched A must never
  // move.
  PageId rotate = 3;
  for (int w = 0; w < 40; ++w) {
    for (int i = 0; i < 5; ++i) {
      d.Read(rotate, kB);
      rotate = rotate == 6 ? 3 : rotate + 1;
    }
    clic.ForceEndWindow();
    ASSERT_EQ(PriorityMap(clic).at(kA), committed_a)
        << "untouched priority moved after irregular close " << w;
  }
  ASSERT_EQ(clic.windows_completed(), 41u);
  ASSERT_GT(clic.early_closes(), 0u);

  // Re-touch A in a length-1 window: one fresh page annotated A for
  // exactly one seq gives win_r = 0, win_s = 1. The recurrence over
  // the m completed windows is m multiplications by 0.5 on each
  // accumulator (one per close), all exact in binary floating point.
  const std::uint64_t m = clic.windows_completed();
  clic.ForceEndWindow();  // length 0: reschedules only, no close
  ASSERT_EQ(clic.windows_completed(), m);
  d.Read(9, kA);
  clic.ForceEndWindow();
  double expected_r = 2.0, expected_s = 0.75;
  for (std::uint64_t i = 0; i < m; ++i) {
    expected_r *= 0.5;
    expected_s *= 0.5;
  }
  EXPECT_DOUBLE_EQ(PriorityMap(clic).at(kA),
                   expected_r / (1.0 + expected_s));
}

TEST(ClicWindowTest, ZeroDecayCloseDropsUntouchedHintFromPriorities) {
  // decay = 0 keeps no history: a hint set untouched in a window loses
  // both accumulators at its close, so Priorities(), which lists every
  // hint set with history, drops it.
  //   window 1: seq 0: p1 A miss, seq 1: p1 A hit (R_A = 1),
  //             seq 2: p1 B hit (R_A = 2; p1 now annotated B, cur_A = 0)
  //             close at 3: area_A = 2, priority_A = 2 / (2/3) = 3
  //   window 2: seq 3: p1 B hit; A annotates no page, so it is untouched
  ClicOptions options = BareOptions(100);
  options.decay = 0.0;
  ClicPolicy clic(8, options);
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(1, kA);
  d.Read(1, kB);
  clic.ForceEndWindow();
  ASSERT_DOUBLE_EQ(PriorityMap(clic).at(kA), 3.0);

  d.Read(1, kB);
  clic.ForceEndWindow();
  const auto priorities = PriorityMap(clic);
  EXPECT_EQ(priorities.count(kA), 0u);
  EXPECT_DOUBLE_EQ(priorities.at(kB), 1.0);
}

TEST(ClicWindowTest, ChurnCloseDiscountsStalePrioritiesExactly) {
  // The churn-triggered close discounts only acc_r, so every hint set
  // untouched at that close must see its committed priority scale by
  // exactly the measured similarity — here engineered to be 1/4: of
  // the four re-references in the first checkpoint interval of window
  // 2, one lands in the committed top half (the best-ranked set),
  // three land on a rank-0 set.
  ClicOptions options = BareOptions(100);  // decay = 1 (paper default)
  options.adaptive_window = true;
  options.churn_threshold = 0.5;
  options.min_window = 10;  // first checkpoint 10 requests into a window
  ClicPolicy clic(4, options);
  Driver d(&clic);
  constexpr HintSetId kC = 2, kD = 3, kE = 4;
  // Window 1: four hint sets with positive priorities (distinct
  // re-reference counts), all of their pages evicted by an E-hinted
  // scan before the close, so A..D are untouched afterwards.
  d.Read(10, kA);
  for (int i = 0; i < 4; ++i) d.Read(10, kA);
  d.Read(20, kB);
  for (int i = 0; i < 3; ++i) d.Read(20, kB);
  d.Read(30, kC);
  for (int i = 0; i < 2; ++i) d.Read(30, kC);
  d.Read(40, kD);
  d.Read(40, kD);
  for (PageId p = 50; p <= 53; ++p) d.Read(p, kE);  // evicts 10,20,30,40
  clic.ForceEndWindow();
  ASSERT_EQ(clic.windows_completed(), 1u);
  const auto before = PriorityMap(clic);
  ASSERT_GT(before.at(kA), 0.0);
  ASSERT_GT(before.at(kB), 0.0);
  ASSERT_GT(before.at(kC), 0.0);
  ASSERT_GT(before.at(kD), 0.0);
  ASSERT_EQ(before.at(kE), 0.0);

  // The committed top-half = the two highest (priority, id) pairs of
  // the four ranked sets — the same order EndWindow ranks by.
  std::vector<std::pair<double, HintSetId>> ranked = {
      {before.at(kA), kA}, {before.at(kB), kB},
      {before.at(kC), kC}, {before.at(kD), kD}};
  std::sort(ranked.begin(), ranked.end());
  const HintSetId top_hint = ranked[3].second;

  // Window 2: three E re-references (hits on the scan's cached pages),
  // one re-reference on a fresh page annotated with the top-ranked
  // set, and enough fresh misses to reach the first checkpoint with no
  // further re-references. similarity = 1/4 < 1/2 fires the close.
  d.Read(50, kE);
  d.Read(51, kE);
  d.Read(52, kE);
  d.Read(60, top_hint);  // miss: evicts rank-0 page 53
  d.Read(60, top_hint);  // the one top-half re-reference
  for (PageId p = 70; p <= 74; ++p) d.Read(p, kE);
  const std::uint64_t early_before = clic.early_closes();
  d.Read(74, kE);  // request 10 of the window: checkpoint fires first
  ASSERT_EQ(clic.early_closes(), early_before + 1)
      << "engineered churn interval did not trigger the early close";
  ASSERT_EQ(clic.windows_completed(), 2u);

  const auto after = PriorityMap(clic);
  for (const HintSetId h : {kA, kB, kC, kD}) {
    if (h == top_hint) continue;  // touched: blended, not just scaled
    EXPECT_EQ(after.at(h), 0.25 * before.at(h))
        << "stale hint " << h << " not discounted by exactly sim=1/4";
  }
}

// ---- rank transitions at a window close -----------------------------------
//
// A full cache probed by a chain of misses pins the exact eviction
// order: reading `fresh` evicts the first victim, and reading each
// expected victim next misses only if it really was the page evicted
// one step earlier (otherwise it is still cached and hits). Every read
// is annotated with `probe`, the top-ranked hint set, so the chain's
// own pages queue above every bucket being drained.
void ExpectVictimOrder(Driver& d, HintSetId probe, PageId fresh,
                       const std::vector<PageId>& victims) {
  ASSERT_FALSE(d.Read(fresh, probe)) << "fresh probe page hit";
  for (std::size_t i = 0; i < victims.size(); ++i) {
    ASSERT_FALSE(d.Read(victims[i], probe))
        << "page " << victims[i] << " was not victim " << i;
  }
}

constexpr HintSetId kP = 5, kZ = 6;

TEST(ClicRankTransitionTest, PromotedHintSetKeepsRecencyOrder) {
  // Cache of 6, no evictions before the close. Window 1, with seq:
  //   0 a1 A, 1 z1 Z, 2 a2 A, 3 z2 Z, 4 a3 A, 5 a1 A (hit, R_A = 1),
  //   6 p1 P, 7 p1 P (hit, R_P = 1); close at 8.
  // A: area = 1*2 + 2*2 + 3*4 = 18, S = 2.25, priority 1/2.25.
  // P: area = 2, S = 0.25, priority 4. Z: priority 0.
  // A and P leave rank 0 (ranks 1 and 2); A's pages must keep their
  // recency a1 > a3 > a2 in rank 1, so the victims are rank 0's
  // z1, z2, then a2, a3, a1, then p1.
  ClicPolicy clic(6, BareOptions(1'000));
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(11, kZ);
  d.Read(2, kA);
  d.Read(12, kZ);
  d.Read(3, kA);
  ASSERT_TRUE(d.Read(1, kA));
  d.Read(21, kP);
  ASSERT_TRUE(d.Read(21, kP));
  clic.ForceEndWindow();
  const auto priorities = PriorityMap(clic);
  ASSERT_DOUBLE_EQ(priorities.at(kA), 1.0 / 2.25);
  ASSERT_DOUBLE_EQ(priorities.at(kP), 4.0);
  ExpectVictimOrder(d, kP, 99, {11, 12, 2, 3, 1, 21});
}

// Window 1 interleaves A's and Z's pages and gives A a positive
// priority (rank 1); window 2 references only P. Cache of 6, no
// evictions. Seq:
//   0 a1 A, 1 z1 Z, 2 a2 A, 3 z2 Z, 4 a1 A (hit), 5 z3 Z; close at 6.
//   6 p1 P, 7 p1 P (hit); close at 8.
// At the second close A drops back to rank 0 (the caller's options
// zero it) and P holds rank 1 (R = 1, S = 1). Rank 0 must then hold
// z3 > a1 > z2 > a2 > z1 by recency, so the victims are z1, a2, z2,
// a1, z3, then p1.
void ExpectDemotedSetInterleaves(const ClicOptions& options) {
  ClicPolicy clic(6, options);
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(11, kZ);
  d.Read(2, kA);
  d.Read(12, kZ);
  ASSERT_TRUE(d.Read(1, kA));
  d.Read(13, kZ);
  clic.ForceEndWindow();
  ASSERT_GT(PriorityMap(clic).at(kA), 0.0);
  d.Read(21, kP);
  ASSERT_TRUE(d.Read(21, kP));
  clic.ForceEndWindow();
  const auto priorities = PriorityMap(clic);
  ASSERT_DOUBLE_EQ(priorities.at(kA), 0.0);
  ASSERT_DOUBLE_EQ(priorities.at(kP), 1.0);
  ExpectVictimOrder(d, kP, 99, {11, 2, 12, 1, 13, 21});
}

TEST(ClicRankTransitionTest, DemotedHintSetInterleavesUnderZeroDecay) {
  // decay = 0 keeps only the last window, where A has no re-reference.
  ClicOptions options = BareOptions(1'000);
  options.decay = 0.0;
  ExpectDemotedSetInterleaves(options);
}

TEST(ClicRankTransitionTest, DemotedHintSetInterleavesUnderTracker) {
  // A two-counter Space-Saving tracker holds {A, Z} in window 1 and
  // only {P} in window 2, so A becomes ineligible at the second close.
  ClicOptions options = BareOptions(1'000);
  options.tracker = TrackerKind::kSpaceSaving;
  options.top_k = 2;
  ExpectDemotedSetInterleaves(options);
}

TEST(ClicRankTransitionTest, PositiveHintSetsSwapRanks) {
  // Cache of 4, no evictions before the probes. Window 1, with seq:
  //   0 a1 A, 1 b1 B, 2 b1 B (hit), 3 a2 A, 4 b2 B, 5 a1 A (hit),
  //   6 b2 B (hit); close at 7 (L = 7).
  // A: area = 1*3 + 2*4 = 11, R = 1, priority 7/11 -> rank 1.
  // B: area = 1*3 + 2*3 = 9, R = 2, priority 14/9 -> rank 2.
  // Window 2: a2, a1, a2, a1 (four A hits); close at 11 (L = 4).
  // A: acc_r = 1 + 4 = 5, acc_s = 11/7 + 2, priority 1.4 -> rank 2.
  // B: acc_r = 2, acc_s = 9/7 + 2, priority 14/23 -> rank 1.
  // B's bucket is now evicted first (b1, b2), then A's (a2, a1).
  ClicPolicy clic(4, BareOptions(1'000));
  Driver d(&clic);
  d.Read(1, kA);
  d.Read(11, kB);
  d.Read(11, kB);
  d.Read(2, kA);
  d.Read(12, kB);
  d.Read(1, kA);
  d.Read(12, kB);
  clic.ForceEndWindow();
  auto priorities = PriorityMap(clic);
  ASSERT_DOUBLE_EQ(priorities.at(kA), 7.0 / 11.0);
  ASSERT_DOUBLE_EQ(priorities.at(kB), 14.0 / 9.0);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(d.Read(2, kA));
    ASSERT_TRUE(d.Read(1, kA));
  }
  clic.ForceEndWindow();
  priorities = PriorityMap(clic);
  ASSERT_DOUBLE_EQ(priorities.at(kA), 5.0 / (11.0 / 7.0 + 2.0));
  ASSERT_DOUBLE_EQ(priorities.at(kB), 2.0 / (9.0 / 7.0 + 2.0));
  ExpectVictimOrder(d, kA, 99, {11, 12, 2, 1});
}

TEST(ClicRankTransitionTest, ChurnCloseAtSimilarityZero) {
  // Adaptive window, first checkpoint 10 requests into a window. Cache
  // of 7, no evictions before the probes. Window 1, with seq:
  //   0 a A, 1 b1 B, 2 b1 (hit), 3 c C, 4 c (hit), 5 d D, 6 d (hit),
  //   7 d (hit), 8 a (hit), 9 d (hit), 10 c (hit), 11 b2 B, 12 c (hit),
  //   13 b1 (hit), 14 z1 Z; forced close at 15 (L = 15).
  // Priorities: A 1/1, B 2/1.2, C 3/0.8, D 3/(2/3), Z 0, so ranks
  // A 1, B 2, C 3, D 4, and the committed top half is {C, D}.
  // Window 2: 15 z2 Z, 16 a (hit), then eight hits alternating z1, z2.
  // At the checkpoint (seq 25) all 9 re-references landed on A and Z,
  // none in the top half: similarity 0 closes the window and zeroes
  // every re-reference history. A (R = 1) and Z (R = 8) rank 1 and 2;
  // B, C and D drop into rank 0. Rank 0 must merge b1 > c > b2 > d by
  // recency and Z's pages must keep z2 > z1, so the victims are d, b2,
  // c, b1, then a, then z1, z2.
  ClicOptions options = BareOptions(100);
  options.adaptive_window = true;
  options.churn_threshold = 0.5;
  options.min_window = 10;
  ClicPolicy clic(7, options);
  Driver d(&clic);
  constexpr HintSetId kC = 2, kD = 3;
  d.Read(1, kA);
  d.Read(11, kB);
  d.Read(11, kB);
  d.Read(21, kC);
  d.Read(21, kC);
  d.Read(31, kD);
  d.Read(31, kD);
  d.Read(31, kD);
  d.Read(1, kA);
  d.Read(31, kD);
  d.Read(21, kC);
  d.Read(12, kB);
  d.Read(21, kC);
  d.Read(11, kB);
  d.Read(41, kZ);
  clic.ForceEndWindow();
  ASSERT_EQ(clic.windows_completed(), 1u);
  auto priorities = PriorityMap(clic);
  ASSERT_DOUBLE_EQ(priorities.at(kA), 1.0);
  ASSERT_DOUBLE_EQ(priorities.at(kB), 2.0 / 1.2);
  ASSERT_DOUBLE_EQ(priorities.at(kC), 3.0 / 0.8);
  ASSERT_DOUBLE_EQ(priorities.at(kD), 3.0 / (10.0 / 15.0));

  d.Read(42, kZ);
  ASSERT_TRUE(d.Read(1, kA));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(d.Read(41, kZ));
    ASSERT_TRUE(d.Read(42, kZ));
  }
  const std::uint64_t early = clic.early_closes();
  ExpectVictimOrder(d, kZ, 99, {31, 12, 21, 11, 1, 41, 42});
  EXPECT_EQ(clic.early_closes(), early + 1);
  EXPECT_EQ(clic.windows_completed(), 2u);
  priorities = PriorityMap(clic);
  EXPECT_DOUBLE_EQ(priorities.at(kA), 0.5);
  EXPECT_DOUBLE_EQ(priorities.at(kB), 0.0);
  EXPECT_DOUBLE_EQ(priorities.at(kC), 0.0);
  EXPECT_DOUBLE_EQ(priorities.at(kD), 0.0);
  EXPECT_GT(priorities.at(kZ), priorities.at(kA));
}

TEST(HintClassTreeTest, GroupsByInformativeAttribute) {
  // Attribute 0 determines behaviour; attribute 1 is per-variant noise.
  HintRegistry registry;
  std::vector<HintSample> samples;
  for (std::uint32_t behaviour = 0; behaviour < 2; ++behaviour) {
    for (std::uint32_t noise = 0; noise < 4; ++noise) {
      HintSample s;
      s.hint = registry.Intern(HintVector{0, {behaviour, noise}});
      s.weight = 100;
      s.rate = behaviour == 0 ? 0.9 : 0.1;
      samples.push_back(s);
    }
  }
  HintClassTree tree(registry, samples);
  EXPECT_EQ(tree.num_classes(), 2u);
  // All noise variants of one behaviour share a class...
  const std::uint32_t class0 = tree.ClassOf(samples[0].hint);
  const std::uint32_t class1 = tree.ClassOf(samples[4].hint);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tree.ClassOf(samples[i].hint), class0);
    EXPECT_EQ(tree.ClassOf(samples[4 + i].hint), class1);
  }
  // ... and the two behaviours do not collapse into one.
  EXPECT_NE(class0, class1);
}

}  // namespace
}  // namespace clic
