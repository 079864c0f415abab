// CLIC: CLient-Informed Caching for storage servers (Liu, Aboulnaga,
// Salem, FAST 2009).
//
// Every request carries an opaque hint set describing what the client
// was doing. Over evaluation windows of W requests CLIC measures, for
// each hint set H, how many re-references pages annotated with H
// received and how much cache space those pages occupied; the ratio —
// re-references per page per window, the paper's Equation 2 — becomes
// H's caching priority for the next window. Victims are chosen from the
// lowest-priority non-empty rank bucket, so the steady-state access path
// is constant time: a flat page-table lookup, O(1) annotation/statistics
// updates, one intrusive list splice, and a two-level-bitmap scan for
// the victim rank on misses. No heap allocation happens per request.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/page_table.h"
#include "core/policy.h"
#include "core/trace.h"
#include "stream/lossy_counting.h"
#include "stream/space_saving.h"

namespace clic {

/// Backend for tracking which hint sets are frequent enough to deserve
/// statistics (Section 5 of the paper).
enum class TrackerKind {
  kExact,          // every hint set is tracked
  kSpaceSaving,    // O(1) stream-summary top-k (the paper's choice)
  kLossyCounting,  // deterministic epsilon-approximate alternative
};

struct ClicOptions {
  /// Evaluation window length W, in requests.
  std::uint64_t window = 100'000;
  /// History blend: acc = window_stats + decay * acc. 1.0 keeps the full
  /// history (the paper's r = 1); smaller values favour recent windows.
  double decay = 1.0;
  /// Outqueue entries per cache page (the paper's N_outq = 5).
  double outqueue_per_page = 5.0;
  /// Charge CLIC's per-entry metadata (1% of a page per outqueue entry)
  /// against the cache capacity, as the paper's evaluation does.
  bool charge_metadata = true;
  TrackerKind tracker = TrackerKind::kExact;
  /// Number of hint sets (or generalized classes) granted priorities when
  /// the tracker is approximate.
  std::size_t top_k = 100;
  /// Enable decision-tree hint-set generalization (Section 8 extension).
  bool generalize = false;
  /// Registry for attribute lookups; required when generalize is true.
  std::shared_ptr<const HintRegistry> hint_space;

  // -- Adaptive windowing (churn-triggered early close) ---------------------
  // At the half-window checkpoint the live partial-window Equation-2
  // priorities (from the already-maintained refs/rerefs/area state) are
  // rank-correlated with the previous window's committed ranks; when the
  // similarity collapses below churn_threshold the window closes early.
  // The effective window halves on each early close and doubles back
  // while the signal stays stable, clamped to [min_window, max_window].
  // The whole mechanism is a pure function of the request stream, so
  // adaptive replay stays bit-identical across batch sizes and threads.

  /// Master switch; off reproduces the fixed-window paper behaviour
  /// bit-for-bit.
  bool adaptive_window = false;
  /// Early-close trigger: rank similarity in [0, 1] ((Spearman rho+1)/2).
  /// 0 never closes early, which (with the default ceiling) is also
  /// bit-identical to the fixed window.
  double churn_threshold = 0.5;
  /// Floor on the effective window length; 0 means window / 16.
  std::uint64_t min_window = 0;
  /// Ceiling on the effective window length; 0 means window.
  std::uint64_t max_window = 0;
};

class ClicPolicy : public Policy {
 public:
  ClicPolicy(std::size_t cache_pages, ClicOptions options);
  ~ClicPolicy() override;

  /// Batched hot path: window-boundary checks are hoisted out of the
  /// per-request loop (a batch is split into runs that provably end
  /// before the next window close) and upcoming page-table slots are
  /// software-prefetched. Decisions are bit-identical to sequential
  /// Access() calls, each a batch of one. The window clock counts the
  /// requests applied so far, which the gap-free seq line of
  /// core/policy.h makes equal to `first_seq`; debug builds assert it.
  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override;

  /// Ends the current evaluation window at the next request's seq and
  /// recomputes all priorities (used by the figure-3 style one-shot
  /// analysis). A window that holds no request only reschedules.
  void ForceEndWindow();

  /// Current priority of every hint set observed so far.
  std::vector<std::pair<HintSetId, double>> Priorities() const;

  std::size_t cache_capacity() const { return cache_capacity_; }
  std::size_t outqueue_capacity() const { return outqueue_capacity_; }
  std::uint64_t windows_completed() const { return windows_completed_; }
  /// Scheduled length of the window currently being filled (== the
  /// configured window when adaptive mode is off).
  std::uint64_t effective_window() const { return effective_window_; }
  /// Windows closed early by the churn trigger (0 when adaptive mode is
  /// off or the signal stayed stable).
  std::uint64_t early_closes() const { return early_closes_; }

 private:
  // Slots live in one flat arena covering cache + outqueue residents.
  // One link pair threads either the slot's rank bucket (cached) or the
  // outqueue FIFO (evicted metadata). `stamp` orders cached slots by
  // recency: every move to a bucket front takes the next value of
  // stamp_clock_, so each bucket's stamps strictly decrease from head
  // to tail. A zero stamp marks a slot that is not cached.
  struct Slot {
    PageId page = 0;
    HintSetId hint = 0;
    std::uint32_t prev = kInvalidIndex, next = kInvalidIndex;
    std::uint64_t stamp = 0;
  };
  struct List {
    std::uint32_t head = kInvalidIndex;  // MRU / newest
    std::uint32_t tail = kInvalidIndex;  // LRU / oldest
    std::uint32_t size = 0;
  };
  // Per-hint-set statistics, struct-of-arrays, indexed by HintSetId.
  struct HintStats {
    std::vector<std::uint64_t> refs_w;      // references this window
    std::vector<std::uint64_t> rerefs_w;    // re-references this window
    std::vector<std::uint32_t> cur;         // tracked pages annotated H now
    std::vector<std::uint64_t> area;        // integral of cur over the window
    std::vector<SeqNum> last_change;
    std::vector<double> acc_r;              // decayed re-reference history
    std::vector<double> acc_s;              // decayed space history
    std::vector<double> priority;
    std::vector<std::uint32_t> rank;
    std::size_t size() const { return priority.size(); }
  };

  /// One request, specialized on the tracker backend (0 = exact, 1 =
  /// Space-Saving, 2 = Lossy Counting) so the span loop carries no
  /// per-request tracker branches.
  template <int kTracker>
  bool AccessOneT(const Request& r, SeqNum seq);
  /// One window-check-free span of a batch through the one batch loop
  /// (PipelinedBatch, policies/common.h): page-table slot far ahead,
  /// the cache slot it points at nearer in. Out of line, so AccessBatch
  /// stays a small dispatcher instead of taking in every tracker's
  /// loop (DESIGN.md "CLIC batching").
  template <int kTracker>
  __attribute__((noinline)) void RunBatchSpan(
      const Request* reqs, SeqNum first_seq, std::size_t begin,
      std::size_t end, std::size_t n, std::uint8_t* hits_out);
  void EnsureHint(HintSetId h);
  void FlushArea(HintSetId h, SeqNum now);
  void Annotate(Slot& slot, HintSetId hint, SeqNum now);
  /// The one window check, run when seq reaches next_event_: either the
  /// armed checkpoint (evaluate churn, maybe close early) or the
  /// scheduled window end (close). Either way the next event lies past
  /// seq, so the span that follows holds at least this request.
  void HandleWindowEvent(SeqNum seq);
  /// Rank similarity in [0, 1] between the previous window's committed
  /// ranks and live partial-window behaviour: the fraction of this
  /// window's re-references (the Equation-2 numerator evidence) landing
  /// in hint sets the committed ranking placed in its top half. 1 when
  /// the ranking still predicts where value accrues, 0 when every
  /// re-reference lands in sets it ranked bottom-half or not at all.
  /// Measured over the interval since the previous checkpoint (the
  /// snapshot bases are the only state it mutates), so a mid-window
  /// shift is not diluted by pre-shift mass.
  double ChurnSimilarity();
  void EndWindow(SeqNum end);
  /// Schedules the window starting at `start`: its end effective_window_
  /// requests later and its first churn checkpoint, if one is armed.
  void ScheduleWindow(SeqNum start);
  /// Re-threads the buckets after a re-rank by moving lists, not pages:
  /// a bucket whose hint set keeps a positive rank moves whole, rank 0
  /// is walked only when a hint set left it, and the lists of hint sets
  /// that fell to rank 0 are merged into it by stamp.
  void RebuildBuckets();
#ifndef NDEBUG
  /// Asserts the bucket invariants: stamps strictly decrease along each
  /// bucket, every slot's hint set holds its bucket's rank, bucket sizes
  /// sum to cached_, and the bitmaps flag exactly the non-empty buckets.
  void CheckBuckets() const;
#endif
  void EvictOne(SeqNum now);
  void InsertCached(std::uint32_t slot_index, SeqNum now);
  std::uint32_t FindVictimRank() const;

  // Incremental window close (see DESIGN.md "CLIC incremental window
  // invariant"). Touch() registers a hint set as a candidate for this
  // window's analysis; EndWindow harvests and blends only candidates
  // instead of all known hint sets (its one pass over all of them decays
  // the untouched histories, and is skipped at r = 1 without a churn
  // discount). Invariant: a hint set is a candidate whenever its
  // window statistics (refs_w / rerefs_w / area / cur / last_change)
  // could differ from the post-reset state — maintained by Touch()
  // calls on first reference and on every FlushArea(), plus the cur>0
  // reseed at window close (a hint set still annotating tracked pages
  // accrues area next window without any further event).
  void Touch(HintSetId h) {
    if (!touched_flag_[h]) {
      touched_flag_[h] = 1;
      touched_.push_back(h);
    }
  }
  /// Sets the hint's priority and maintains the positive set (hints
  /// with priority > 0, the only ones that receive non-zero ranks).
  void SetPriority(HintSetId h, double priority);

  /// Below this many ranked hint sets a rank correlation is noise, so
  /// the churn signal reports perfect stability instead.
  static constexpr std::size_t kMinChurnSignalHints = 4;
  /// Consecutive full-length closes required before the effective
  /// window doubles back toward max_window_. Shrinking is immediate
  /// (every churn close halves) but growth is paced: a fine checkpoint
  /// cadence must persist through a churn episode, and a short window
  /// during stability only costs rank-recompute work, never ranking
  /// quality (the decay blend accumulates across windows either way).
  static constexpr std::uint64_t kStableClosesToGrow = 2;

  // Intrusive list helpers over slots_. BucketPushFront is the one
  // place a slot is stamped.
  void ListPushFront(List& list, std::uint32_t i);
  void ListPushBack(List& list, std::uint32_t i);
  void ListRemove(List& list, std::uint32_t i);
  void BucketPushFront(std::uint32_t rank, std::uint32_t i);
  void BucketPushBack(std::uint32_t rank, std::uint32_t i);
  void BucketRemove(std::uint32_t rank, std::uint32_t i);

  void BitmapSet(std::uint32_t rank);
  void BitmapClear(std::uint32_t rank);

  ClicOptions options_;
  std::size_t cache_capacity_;     // after the optional metadata charge
  std::size_t outqueue_capacity_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  PageTable page_table_;
  List outqueue_;  // evicted metadata, newest at head
  std::uint32_t cached_ = 0;       // slots in the rank buckets
  std::uint64_t stamp_clock_ = 0;  // last stamp handed out

  HintStats hints_;
  std::vector<List> buckets_;            // one per rank
  std::vector<std::uint64_t> bitmap_;    // non-empty-bucket bits
  std::vector<std::uint64_t> bitmap_summary_;
  std::uint32_t num_ranks_ = 1;
  /// Hint sets that entered positive_ (so left rank 0) since the last
  /// rebuild; RebuildBuckets walks rank 0 only when this is non-zero.
  std::size_t promoted_ = 0;
  // RebuildBuckets scratch: the previous buckets, and a max-heap of
  // (stamp, slot) heads of the lists being merged into rank 0.
  std::vector<List> old_buckets_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> merge_heap_;

  // Incremental-window state, all indexed by HintSetId (except the
  // candidate / positive lists themselves).
  std::vector<HintSetId> touched_;             // this window's candidates
  std::vector<std::uint8_t> touched_flag_;     // membership in touched_
  std::vector<HintSetId> positive_;            // hints with priority > 0
  std::vector<std::uint32_t> pos_index_;       // position in positive_
  std::vector<std::uint8_t> eligible_;         // per-window scratch
  std::vector<double> win_r_, win_s_;          // per-window scratch
  std::vector<std::pair<double, HintSetId>> rank_scratch_;

  SeqNum window_start_ = 0;
  SeqNum next_window_end_;
  /// Seq of the next request: the first_seq the next batch must carry.
  SeqNum next_seq_ = 0;
  std::uint64_t windows_completed_ = 0;

  // Adaptive-window state. next_event_ is the next seq at which the
  // access path must stop and run HandleWindowEvent: the armed
  // checkpoint if one is pending, else the window end (with adaptive
  // mode off it always equals next_window_end_, and the hot path's
  // single branch is unchanged). Invariant: window_checkpoint_ <=
  // next_window_end_, equal when no checkpoint is armed.
  SeqNum window_checkpoint_;
  SeqNum next_event_;
  std::uint64_t effective_window_;      // in [min_window_, max_window_]
  /// Churn-signal cadence: checkpoints fire every max(1, min_window/2)
  /// requests regardless of the current effective window, so
  /// worst-case shift-detection latency stays ~min_window even after
  /// the window has geometrically re-expanded.
  std::uint64_t checkpoint_interval_ = 1;
  /// Cumulative (total, top-half-predicted) re-reference mass already
  /// consumed by earlier checkpoints of the current window; EndWindow
  /// zeroes both alongside rerefs_w.
  std::uint64_t ckpt_total_base_ = 0;
  std::uint64_t ckpt_pred_base_ = 0;
  std::uint64_t min_window_ = 1;
  std::uint64_t max_window_ = 1;
  std::uint64_t early_closes_ = 0;
  std::uint64_t stable_closes_ = 0;     // consecutive full-length closes
  /// Measured similarity of a pending churn-triggered close, consumed
  /// (and reset to 1) by the next EndWindow, which scales acc_r alone by
  /// it: discounting acc_s too would cancel in the Equation-2 ratio and
  /// demote nothing.
  double churn_discount_ = 1.0;

  std::unique_ptr<SpaceSaving<HintSetId>> space_saving_;
  std::unique_ptr<LossyCounting<HintSetId>> lossy_counting_;
};

}  // namespace clic
