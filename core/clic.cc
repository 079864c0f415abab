#include "core/clic.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/hint_tree.h"
#include "policies/common.h"

namespace clic {

ClicPolicy::ClicPolicy(std::size_t cache_pages, ClicOptions options)
    : options_(std::move(options)) {
  cache_pages = std::max<std::size_t>(1, cache_pages);
  outqueue_capacity_ = static_cast<std::size_t>(
      std::llround(std::max(0.0, options_.outqueue_per_page) *
                   static_cast<double>(cache_pages)));
  cache_capacity_ = cache_pages;
  if (options_.charge_metadata) {
    // Each outqueue entry costs ~1% of a page of metadata; the paper
    // charges CLIC for that space instead of letting it track for free.
    const std::size_t meta = (outqueue_capacity_ + 99) / 100;
    cache_capacity_ = cache_pages > meta ? cache_pages - meta : 1;
  }
  if (options_.window == 0) options_.window = 1;
  // Adaptive bounds resolve against the configured window: the floor
  // defaults to a sixteenth of it, the ceiling to the window itself, so
  // adaptation can only shorten the paper's W unless the caller widens
  // the ceiling explicitly.
  min_window_ = options_.min_window != 0
                    ? options_.min_window
                    : std::max<std::uint64_t>(1, options_.window / 16);
  max_window_ = options_.max_window != 0 ? options_.max_window
                                         : options_.window;
  if (min_window_ > max_window_) min_window_ = max_window_;
  effective_window_ = options_.adaptive_window
                          ? std::clamp(options_.window, min_window_,
                                       max_window_)
                          : options_.window;
  checkpoint_interval_ = std::max<std::uint64_t>(1, min_window_ / 2);
  ScheduleWindow(0);

  slots_.resize(cache_capacity_ + outqueue_capacity_);
  free_slots_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  buckets_.assign(1, List{});
  bitmap_.assign(1, 0);
  bitmap_summary_.assign(1, 0);

  if (options_.tracker == TrackerKind::kSpaceSaving) {
    space_saving_ = std::make_unique<SpaceSaving<HintSetId>>(
        std::max<std::size_t>(1, options_.top_k));
  } else if (options_.tracker == TrackerKind::kLossyCounting) {
    lossy_counting_ = std::make_unique<LossyCounting<HintSetId>>(
        1.0 / static_cast<double>(std::max<std::size_t>(1, options_.top_k)));
  }
}

ClicPolicy::~ClicPolicy() = default;

void ClicPolicy::EnsureHint(HintSetId h) {
  if (h < hints_.size()) return;
  const std::size_t n = static_cast<std::size_t>(h) + 1;
  hints_.refs_w.resize(n, 0);
  hints_.rerefs_w.resize(n, 0);
  hints_.cur.resize(n, 0);
  hints_.area.resize(n, 0);
  hints_.last_change.resize(n, window_start_);
  hints_.acc_r.resize(n, 0.0);
  hints_.acc_s.resize(n, 0.0);
  hints_.priority.resize(n, 0.0);
  hints_.rank.resize(n, 0);
  touched_flag_.resize(n, 0);
  pos_index_.resize(n, kInvalidIndex);
  eligible_.resize(n, 0);
  win_r_.resize(n, 0.0);
  win_s_.resize(n, 0.0);
}

void ClicPolicy::FlushArea(HintSetId h, SeqNum now) {
  // Every cur / annotation change flows through here, so flushing also
  // registers the hint set as an incremental-window candidate.
  Touch(h);
  hints_.area[h] += static_cast<std::uint64_t>(hints_.cur[h]) *
                    (now - hints_.last_change[h]);
  hints_.last_change[h] = now;
}

void ClicPolicy::Annotate(Slot& slot, HintSetId hint, SeqNum now) {
  if (slot.hint == hint) return;
  FlushArea(slot.hint, now);
  --hints_.cur[slot.hint];
  FlushArea(hint, now);
  ++hints_.cur[hint];
  slot.hint = hint;
}

// ---- intrusive lists ------------------------------------------------------

void ClicPolicy::ListPushFront(List& list, std::uint32_t i) {
  slots_[i].prev = kInvalidIndex;
  slots_[i].next = list.head;
  if (list.head != kInvalidIndex) slots_[list.head].prev = i;
  list.head = i;
  if (list.tail == kInvalidIndex) list.tail = i;
  ++list.size;
}

void ClicPolicy::ListPushBack(List& list, std::uint32_t i) {
  slots_[i].next = kInvalidIndex;
  slots_[i].prev = list.tail;
  if (list.tail != kInvalidIndex) slots_[list.tail].next = i;
  list.tail = i;
  if (list.head == kInvalidIndex) list.head = i;
  ++list.size;
}

void ClicPolicy::ListRemove(List& list, std::uint32_t i) {
  if (slots_[i].prev != kInvalidIndex) {
    slots_[slots_[i].prev].next = slots_[i].next;
  } else {
    list.head = slots_[i].next;
  }
  if (slots_[i].next != kInvalidIndex) {
    slots_[slots_[i].next].prev = slots_[i].prev;
  } else {
    list.tail = slots_[i].prev;
  }
  --list.size;
}

void ClicPolicy::BucketPushFront(std::uint32_t rank, std::uint32_t i) {
  slots_[i].stamp = ++stamp_clock_;
  ListPushFront(buckets_[rank], i);
  if (buckets_[rank].size == 1) BitmapSet(rank);
}

void ClicPolicy::BucketPushBack(std::uint32_t rank, std::uint32_t i) {
  ListPushBack(buckets_[rank], i);
  if (buckets_[rank].size == 1) BitmapSet(rank);
}

void ClicPolicy::BucketRemove(std::uint32_t rank, std::uint32_t i) {
  ListRemove(buckets_[rank], i);
  if (buckets_[rank].size == 0) BitmapClear(rank);
}

void ClicPolicy::BitmapSet(std::uint32_t rank) {
  const std::uint32_t word = rank >> 6;
  bitmap_[word] |= 1ull << (rank & 63);
  bitmap_summary_[word >> 6] |= 1ull << (word & 63);
}

void ClicPolicy::BitmapClear(std::uint32_t rank) {
  const std::uint32_t word = rank >> 6;
  bitmap_[word] &= ~(1ull << (rank & 63));
  if (bitmap_[word] == 0) {
    bitmap_summary_[word >> 6] &= ~(1ull << (word & 63));
  }
}

std::uint32_t ClicPolicy::FindVictimRank() const {
  for (std::uint32_t sw = 0; sw < bitmap_summary_.size(); ++sw) {
    if (bitmap_summary_[sw] == 0) continue;
    const std::uint32_t word =
        (sw << 6) + static_cast<std::uint32_t>(
                        __builtin_ctzll(bitmap_summary_[sw]));
    return (word << 6) +
           static_cast<std::uint32_t>(__builtin_ctzll(bitmap_[word]));
  }
  return 0;  // unreachable while the cache holds pages
}

// ---- cache mechanics ------------------------------------------------------

void ClicPolicy::EvictOne(SeqNum now) {
  const std::uint32_t rank = FindVictimRank();
  const std::uint32_t si = buckets_[rank].tail;
  BucketRemove(rank, si);
  --cached_;
  Slot& s = slots_[si];
  s.stamp = 0;
  if (outqueue_capacity_ > 0) {
    // The page's metadata stays tracked in the outqueue so a re-reference
    // still credits its hint set.
    ListPushFront(outqueue_, si);
    if (outqueue_.size > outqueue_capacity_) {
      const std::uint32_t drop = outqueue_.tail;
      ListRemove(outqueue_, drop);
      Slot& d = slots_[drop];
      FlushArea(d.hint, now);
      --hints_.cur[d.hint];
      page_table_.Clear(d.page);
      free_slots_.push_back(drop);
    }
  } else {
    FlushArea(s.hint, now);
    --hints_.cur[s.hint];
    page_table_.Clear(s.page);
    free_slots_.push_back(si);
  }
}

void ClicPolicy::InsertCached(std::uint32_t slot_index, SeqNum now) {
  if (cached_ >= cache_capacity_) EvictOne(now);
  ++cached_;
  BucketPushFront(hints_.rank[slots_[slot_index].hint], slot_index);
}

void ClicPolicy::HandleWindowEvent(SeqNum seq) {
  if (seq >= next_window_end_) {
    EndWindow(next_window_end_);
    return;
  }
  // seq landed in [checkpoint, window end): consume this checkpoint,
  // arm the next one on the fixed cadence (every checkpoint_interval_
  // requests, so worst-case detection latency is bounded by
  // ~min_window even when the effective window has re-expanded),
  // evaluate the churn signal once, and close early if the previous
  // window's ranks no longer predict the live re-reference mass. A
  // checkpoint no request ever lands on is never evaluated — the
  // signal is a pure function of the request stream, not of wall time.
  const SeqNum ckpt = window_checkpoint_;
  const SeqNum next_ckpt = ckpt + checkpoint_interval_;
  window_checkpoint_ =
      next_ckpt < next_window_end_ ? next_ckpt : next_window_end_;
  next_event_ = window_checkpoint_;
  const double similarity = ChurnSimilarity();
  if (similarity < options_.churn_threshold) {
    // Close early AND discount the accumulated history by the measured
    // similarity: ranks that no longer predict live behaviour were
    // produced by history that is now stale, and with the paper's r = 1
    // that history would otherwise pin the previous phase's hint sets
    // at the top of the ranking for the rest of the run.
    churn_discount_ = similarity;
    EndWindow(ckpt);
  }
}

double ClicPolicy::ChurnSimilarity() {
  // A signed rank correlation (Spearman/Kendall) over the live partial
  // priorities degenerates here: after a total working-set shift every
  // stale hint set's live priority ties at exactly zero, the tie block
  // sorts by id, and rho lands near 0 — i.e. similarity saturates at
  // 0.5 instead of collapsing. What the close decision actually needs
  // is "does the committed ranking still predict where re-reference
  // value accrues", so measure exactly that: the fraction of the
  // re-reference mass credited to hint sets the committed ranking
  // placed in its top half (ranks above k/2 of the k ranked sets).
  // Stable workloads score near 1; an abrupt shift scores near 0
  // because the new phase's sets are bottom-ranked or unranked.
  //
  // The fraction is computed over the mass accrued SINCE THE PREVIOUS
  // CHECKPOINT, not since the window start: rerefs_w is cumulative,
  // and a shift landing mid-window would otherwise be diluted by the
  // pre-shift mass for the rest of the window (measured on
  // phase-abrupt: similarity plateaus at ~0.62 while the hit ratio
  // sits at zero). Ranks are constant between closes, so two scalar
  // snapshot bases — reset by EndWindow alongside rerefs_w — turn the
  // cumulative pass into an exact per-interval delta. One pass over
  // the candidate list, no sort — and the signal keeps firing across
  // consecutive checkpoints until the discounted ranking predicts
  // behaviour again.
  const std::size_t k = positive_.size();
  if (k < kMinChurnSignalHints) return 1.0;
  const std::uint32_t top_rank = static_cast<std::uint32_t>(k / 2);
  std::uint64_t total = 0;
  std::uint64_t predicted = 0;
  for (HintSetId h : touched_) {
    const std::uint64_t rr = hints_.rerefs_w[h];
    total += rr;
    if (hints_.rank[h] > top_rank) predicted += rr;
  }
  const std::uint64_t interval_total = total - ckpt_total_base_;
  const std::uint64_t interval_predicted = predicted - ckpt_pred_base_;
  ckpt_total_base_ = total;
  ckpt_pred_base_ = predicted;
  // No re-references this interval is absence of evidence, not churn.
  if (interval_total == 0) return 1.0;
  return static_cast<double>(interval_predicted) /
         static_cast<double>(interval_total);
}

// clic-lint: hot-path
template <int kTracker>
void ClicPolicy::RunBatchSpan(const Request* reqs, SeqNum first_seq,
                              std::size_t begin, std::size_t end,
                              std::size_t n, std::uint8_t* hits_out) {
  PipelinedBatch(
      reqs, first_seq, begin, end, n, hits_out,
      [this](PageId p) { page_table_.Prefetch(p); },
      [this](PageId p) {
        // The far step warmed this table slot; chase it now so the
        // 24-byte Slot is warm too when its request arrives.
        const std::uint32_t ahead = page_table_.Get(p);
        if (ahead != kInvalidIndex) __builtin_prefetch(&slots_[ahead], 0, 1);
      },
      [this](const Request& r, SeqNum seq) {
        return AccessOneT<kTracker>(r, seq);
      });
}

// clic-lint: hot-path
void ClicPolicy::AccessBatch(const Request* reqs,
                             [[maybe_unused]] SeqNum first_seq,
                             std::size_t n, std::uint8_t* hits_out) {
  // Windows are measured in requests, so the seq line must be gap-free
  // (core/policy.h); the clock is this policy's own request count.
  assert(first_seq == next_seq_ && "gap in the seq line");
  const SeqNum base = next_seq_;
  next_seq_ = base + n;
  std::size_t i = 0;
  while (i < n) {
    const SeqNum seq = base + i;
    if (seq >= next_event_) HandleWindowEvent(seq);
    // No window event (checkpoint or close) can fire before `run`, so
    // the inner span needs no boundary check at all — the per-request
    // branch is hoisted here, and the tracker dispatch happens once per
    // span instead of per request.
    const std::size_t run =
        i + static_cast<std::size_t>(
                std::min<std::uint64_t>(n - i, next_event_ - seq));
    if (space_saving_) {
      RunBatchSpan<1>(reqs, base, i, run, n, hits_out);
    } else if (lossy_counting_) {
      RunBatchSpan<2>(reqs, base, i, run, n, hits_out);
    } else {
      RunBatchSpan<0>(reqs, base, i, run, n, hits_out);
    }
    i = run;
  }
}

// clic-lint: hot-path
template <int kTracker>
inline bool ClicPolicy::AccessOneT(const Request& r, SeqNum seq) {
  EnsureHint(r.hint_set);
  if (hints_.refs_w[r.hint_set]++ == 0) Touch(r.hint_set);
  if constexpr (kTracker == 1) {
    space_saving_->Offer(r.hint_set);
  } else if constexpr (kTracker == 2) {
    lossy_counting_->Offer(r.hint_set);
  }

  const std::uint32_t si = page_table_.Get(r.page);
  if (si != kInvalidIndex) {
    Slot& s = slots_[si];
    // Re-reference: credit the hint set that annotated the page. A
    // tracked slot means cur[s.hint] > 0, which guarantees s.hint is
    // already a window candidate (see Touch invariant) — no Touch here.
    ++hints_.rerefs_w[s.hint];
    if (s.stamp != 0) {
      const std::uint32_t old_rank = hints_.rank[s.hint];
      Annotate(s, r.hint_set, seq);
      BucketRemove(old_rank, si);
      BucketPushFront(hints_.rank[s.hint], si);
      return true;
    }
    // Outqueue hit: a miss for the cache, but the page re-enters it.
    ListRemove(outqueue_, si);
    Annotate(s, r.hint_set, seq);
    InsertCached(si, seq);
    return false;
  }

  // Cold miss: the page becomes annotated with the request's hint set.
  FlushArea(r.hint_set, seq);
  ++hints_.cur[r.hint_set];
  if (free_slots_.empty()) EvictOne(seq);  // trims the outqueue, frees a slot
  const std::uint32_t node = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[node];
  s.page = r.page;
  s.hint = r.hint_set;
  page_table_.Set(r.page, node);
  InsertCached(node, seq);
  return false;
}

// ---- window analysis (Equation 2, incremental) ----------------------------
//
// The harvest and blend loops visit only this window's candidates (the
// touched_ list) instead of every hint set ever seen; only the decay of
// untouched histories (case 2) visits them all. Correctness rests on two
// facts:
//   1. A hint set outside touched_ has refs_w == rerefs_w == area == 0
//      and cur == 0 (Touch invariant + cur>0 reseed), so its window
//      statistics are exactly the post-reset state — skipping it is a
//      no-op.
//   2. An untouched hint set's accumulators follow the same recurrence
//      with a zero window term, acc = 0 + factor * acc, applied by the
//      close itself to every one of them (and skipped when both factors
//      are 1, the paper's r = 1, where it is a no-op). Scaling both
//      accumulators by one factor leaves the Equation-2 ratio as it
//      was, so the priority — and hence the rank order relative to
//      other unchanged hints — carries forward. The three cases where
//      the ratio does change are all handled at the close that causes
//      them: approximate trackers drop unreferenced hints (a sweep of
//      the maintained positive set), and with the exact tracker a zero
//      factor (decay == 0, or a churn close at similarity 0) or a churn
//      discount (acc_r scaled by less than acc_s) re-ranks every
//      untouched hint in the decay loop. The carried priority fl(a/b)
//      can differ from a recomputed fl(fl(d*a)/fl(d*b)) by an ulp when
//      decay is not a power of two (independent rounding of the two
//      products); it is the exact value of the same ratio, but a rank
//      sort could in principle order two ulp-adjacent priorities
//      differently than recomputing every priority would.

void ClicPolicy::SetPriority(HintSetId h, double priority) {
  hints_.priority[h] = priority;
  const bool in_positive = pos_index_[h] != kInvalidIndex;
  if (priority > 0.0) {
    if (!in_positive) {
      pos_index_[h] = static_cast<std::uint32_t>(positive_.size());
      positive_.push_back(h);
      ++promoted_;
    }
  } else if (in_positive) {
    const std::uint32_t idx = pos_index_[h];
    const HintSetId last = positive_.back();
    positive_[idx] = last;
    pos_index_[last] = idx;
    positive_.pop_back();
    pos_index_[h] = kInvalidIndex;
    hints_.rank[h] = 0;  // leaves the ranked set; rank 0 = evict first
  }
}

void ClicPolicy::EndWindow(SeqNum end) {
  const std::uint64_t length = end - window_start_;
  if (options_.adaptive_window && length > 0) {
    // MIMD adaptation: a churn-triggered (or forced) early close halves
    // the effective window; kStableClosesToGrow consecutive windows
    // that ran to their scheduled end double it back. Both moves clamp
    // to [min_window_, max_window_]. Growth is deliberately slower than
    // shrinkage: a short window keeps the checkpoint cadence fine while
    // a churn episode is still resolving, and the only cost of staying
    // short during stability is the rank recompute, not ranking quality
    // (the decay blend accumulates across windows either way). An empty
    // window (a forced close where one starts) closes nothing, so it
    // adapts nothing either.
    if (end < next_window_end_) {
      ++early_closes_;
      stable_closes_ = 0;
      effective_window_ = std::max(min_window_, effective_window_ / 2);
    } else if (++stable_closes_ >= kStableClosesToGrow) {
      stable_closes_ = 0;
      effective_window_ = effective_window_ > max_window_ / 2
                              ? max_window_
                              : effective_window_ * 2;
    }
  }
  ScheduleWindow(end);
  if (length == 0) return;

  // Candidate order must match the ascending full-scan order the eager
  // analysis used: generalization class ids depend on sample order.
  std::sort(touched_.begin(), touched_.end());

  for (HintSetId h : touched_) {
    if (hints_.cur[h]) FlushArea(h, end);
  }

  // Which hint sets get priorities at all (Section 5 top-k filtering).
  // Tracker items were all offered this window, so they are candidates;
  // eligible_ bits are cleared again in the reset loop below.
  const bool exact = options_.tracker == TrackerKind::kExact;
  const std::size_t n = hints_.size();
  if (!exact) {
    if (space_saving_) {
      for (const auto& e : space_saving_->Items()) {
        if (e.item < n) eligible_[e.item] = 1;
      }
    } else if (lossy_counting_) {
      std::size_t taken = 0;
      for (const auto& e : lossy_counting_->Items()) {
        if (taken++ >= options_.top_k) break;
        if (e.item < n) eligible_[e.item] = 1;
      }
    }
  }

  // Per-hint window statistics: R = re-references credited to the hint
  // set, S = time-averaged number of tracked pages it annotated. Only
  // candidate entries of the persistent scratch are written (and read).
  for (HintSetId h : touched_) {
    win_r_[h] = static_cast<double>(hints_.rerefs_w[h]);
    win_s_[h] = static_cast<double>(hints_.area[h]) /
                static_cast<double>(length);
  }

  if (options_.generalize && options_.hint_space) {
    // Pool statistics over decision-tree classes; every member of a
    // class shares the pooled Equation-2 estimate, and top-k filtering
    // applies to classes instead of raw hint sets. Samples (refs_w > 0)
    // are a subset of the candidates.
    std::vector<HintSample> samples;
    samples.reserve(touched_.size());
    for (HintSetId h : touched_) {
      if (hints_.refs_w[h] == 0) continue;
      HintSample s;
      s.hint = h;
      s.weight = hints_.refs_w[h];
      s.rate = static_cast<double>(hints_.rerefs_w[h]) /
               static_cast<double>(hints_.refs_w[h]);
      samples.push_back(s);
    }
    HintClassTree tree(*options_.hint_space, samples);
    const std::uint32_t classes = tree.num_classes();
    std::vector<double> class_r(classes, 0.0), class_s(classes, 0.0);
    std::vector<std::uint64_t> class_refs(classes, 0);
    for (const HintSample& s : samples) {
      const std::uint32_t c = tree.ClassOf(s.hint);
      class_r[c] += win_r_[s.hint];
      class_s[c] += win_s_[s.hint];
      class_refs[c] += s.weight;
    }
    std::vector<std::uint8_t> class_ok(classes, 1);
    if (!exact && classes > options_.top_k) {
      std::vector<std::uint32_t> order(classes);
      for (std::uint32_t c = 0; c < classes; ++c) order[c] = c;
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (class_refs[a] != class_refs[b]) {
                    return class_refs[a] > class_refs[b];
                  }
                  return a < b;
                });
      class_ok.assign(classes, 0);
      for (std::size_t i = 0; i < options_.top_k; ++i) class_ok[order[i]] = 1;
    }
    if (!exact) {
      for (HintSetId h : touched_) eligible_[h] = 0;
    }
    for (const HintSample& s : samples) {
      const std::uint32_t c = tree.ClassOf(s.hint);
      win_r_[s.hint] = class_r[c];
      win_s_[s.hint] = class_s[c];
      if (!exact && class_ok[c]) eligible_[s.hint] = 1;
    }
  }

  // Blend this window in and recompute priorities — candidates only.
  // A churn-triggered close discounts the *numerator* history by the
  // measured similarity: scaling both accumulators would cancel in the
  // Equation-2 ratio and leave every stale hint set's priority
  // untouched, which with the paper's r = 1 would pin the previous
  // phase at the top of the ranking forever. Discounting acc_r alone
  // demotes a stale set's priority by exactly how badly its committed
  // rank predicted the live ranking; acc_s always decays by the
  // configured r.
  const double decay = options_.decay;
  const bool churned = churn_discount_ != 1.0;
  const double r_factor = decay * churn_discount_;
  churn_discount_ = 1.0;
  for (HintSetId h : touched_) {
    hints_.acc_r[h] = win_r_[h] + r_factor * hints_.acc_r[h];
    hints_.acc_s[h] = win_s_[h] + decay * hints_.acc_s[h];
    const bool ok = exact || eligible_[h];
    SetPriority(h, (ok && hints_.acc_s[h] > 0.0)
                       ? hints_.acc_r[h] / hints_.acc_s[h]
                       : 0.0);
  }

  // Decay every untouched history by the same factors (case 2 above).
  // Its priority carries over unless the close changes its ratio: with
  // the exact tracker a churn discount (r shrinks, s does not) or a
  // zero factor re-ranks it right here — the whole point of the
  // discount is that the stale sets lose this window's rank sort, not
  // some later one.
  if (churned || decay != 1.0) {
    const bool rerank = exact && (churned || r_factor == 0.0);
    for (std::size_t h = 0; h < n; ++h) {
      if (touched_flag_[h]) continue;
      hints_.acc_r[h] *= r_factor;
      hints_.acc_s[h] *= decay;
      if (rerank) {
        SetPriority(static_cast<HintSetId>(h),
                    hints_.acc_s[h] > 0.0 ? hints_.acc_r[h] / hints_.acc_s[h]
                                          : 0.0);
      }
    }
  }
  // Approximate trackers make every unreferenced hint ineligible.
  // (Downward sweep loop: SetPriority(., 0) swap-removes, moving an
  // already-visited tail element into slot i.)
  if (!exact) {
    for (std::size_t i = positive_.size(); i-- > 0;) {
      const HintSetId h = positive_[i];
      if (!touched_flag_[h]) SetPriority(h, 0.0);
    }
  }

  // Rank hint sets: rank 0 collects everything with zero priority (those
  // pages are evicted first, in recency order); positive priorities get
  // ranks in ascending order. positive_ is exactly the set the
  // full scan would have collected; sorting (priority, id) pairs makes
  // the order independent of how the set was accumulated.
  rank_scratch_.clear();
  rank_scratch_.reserve(positive_.size());
  for (HintSetId h : positive_) {
    rank_scratch_.emplace_back(hints_.priority[h], h);
  }
  std::sort(rank_scratch_.begin(), rank_scratch_.end());
  num_ranks_ = static_cast<std::uint32_t>(rank_scratch_.size()) + 1;
  for (std::uint32_t i = 0; i < rank_scratch_.size(); ++i) {
    hints_.rank[rank_scratch_[i].second] = i + 1;
  }
  RebuildBuckets();

  // Reset candidates' window statistics and reseed the next window's
  // candidate list with hint sets that still annotate tracked pages
  // (their area keeps accruing with no further event).
  std::size_t keep = 0;
  for (HintSetId h : touched_) {
    hints_.refs_w[h] = 0;
    hints_.rerefs_w[h] = 0;
    hints_.area[h] = 0;
    hints_.last_change[h] = end;
    eligible_[h] = 0;
    if (hints_.cur[h]) {
      touched_[keep++] = h;
    } else {
      touched_flag_[h] = 0;
    }
  }
  touched_.resize(keep);
  if (space_saving_) space_saving_->Clear();
  if (lossy_counting_) lossy_counting_->Clear();
  window_start_ = end;
  ckpt_total_base_ = 0;
  ckpt_pred_base_ = 0;
  ++windows_completed_;
}

void ClicPolicy::ScheduleWindow(SeqNum start) {
  next_window_end_ = start + effective_window_;
  // The first checkpoint arms at start + min_window_ (not at the
  // cadence interval): no close may produce a window shorter than the
  // floor, so a floor-length window has no checkpoints at all.
  window_checkpoint_ = (options_.adaptive_window &&
                        options_.churn_threshold > 0.0 &&
                        min_window_ < effective_window_)
                           ? start + min_window_
                           : next_window_end_;
  next_event_ = window_checkpoint_;
}

void ClicPolicy::RebuildBuckets() {
  // Every bucket is already in exact recency order, and a positive rank
  // holds exactly one hint set's pages, so whole lists move: nothing
  // here walks the cache except rank 0 when a hint set leaves it, and
  // the merge of the lists that join it.
  old_buckets_.swap(buckets_);
  buckets_.assign(num_ranks_, List{});
  const std::size_t words = (num_ranks_ + 63) / 64;
  bitmap_.assign(words, 0);
  bitmap_summary_.assign((words + 63) / 64, 0);

  merge_heap_.clear();
  for (std::size_t r = 1; r < old_buckets_.size(); ++r) {
    const List& b = old_buckets_[r];
    if (b.size == 0) continue;
    const std::uint32_t rank = hints_.rank[slots_[b.head].hint];
    if (rank != 0) {
      buckets_[rank] = b;
      BitmapSet(rank);
    } else {
      merge_heap_.emplace_back(slots_[b.head].stamp, b.head);
    }
  }

  // Split off the pages of hint sets promoted out of rank 0. Walking
  // MRU-first and appending keeps their order.
  List zero = old_buckets_[0];
  if (promoted_ != 0) {
    promoted_ = 0;
    for (std::uint32_t i = zero.head; i != kInvalidIndex;) {
      const std::uint32_t next = slots_[i].next;
      const std::uint32_t rank = hints_.rank[slots_[i].hint];
      if (rank != 0) {
        ListRemove(zero, i);
        BucketPushBack(rank, i);
      }
      i = next;
    }
  }

  if (merge_heap_.empty()) {
    buckets_[0] = zero;
    if (zero.size != 0) BitmapSet(0);
  } else {
    // Merge rank 0 and the demoted lists by stamp, newest first.
    if (zero.size != 0) {
      merge_heap_.emplace_back(slots_[zero.head].stamp, zero.head);
    }
    std::make_heap(merge_heap_.begin(), merge_heap_.end());
    while (!merge_heap_.empty()) {
      std::pop_heap(merge_heap_.begin(), merge_heap_.end());
      const std::uint32_t i = merge_heap_.back().second;
      const std::uint32_t next = slots_[i].next;
      merge_heap_.pop_back();
      if (next != kInvalidIndex) {
        merge_heap_.emplace_back(slots_[next].stamp, next);
        std::push_heap(merge_heap_.begin(), merge_heap_.end());
      }
      BucketPushBack(0, i);
    }
  }
#ifndef NDEBUG
  CheckBuckets();
#endif
}

#ifndef NDEBUG
void ClicPolicy::CheckBuckets() const {
  std::size_t total = 0;
  for (std::uint32_t rank = 0; rank < num_ranks_; ++rank) {
    const List& b = buckets_[rank];
    std::uint32_t count = 0;
    std::uint32_t prev = kInvalidIndex;
    for (std::uint32_t i = b.head; i != kInvalidIndex; i = slots_[i].next) {
      const Slot& s = slots_[i];
      assert(s.prev == prev);
      assert(s.stamp != 0);
      assert(prev == kInvalidIndex || s.stamp < slots_[prev].stamp);
      assert(hints_.rank[s.hint] == rank);
      prev = i;
      ++count;
    }
    assert(b.tail == prev && b.size == count);
    const bool bit = (bitmap_[rank >> 6] >> (rank & 63)) & 1;
    assert(bit == (count != 0));
    total += count;
  }
  for (std::size_t word = 0; word < bitmap_.size(); ++word) {
    const bool bit = (bitmap_summary_[word >> 6] >> (word & 63)) & 1;
    assert(bit == (bitmap_[word] != 0));
  }
  assert(total == cached_);
}
#endif

void ClicPolicy::ForceEndWindow() { EndWindow(next_seq_); }

std::vector<std::pair<HintSetId, double>> ClicPolicy::Priorities() const {
  std::vector<std::pair<HintSetId, double>> out;
  const std::size_t n = hints_.size();
  out.reserve(n);
  for (std::size_t h = 0; h < n; ++h) {
    if (hints_.acc_s[h] > 0.0 || hints_.acc_r[h] > 0.0) {
      out.emplace_back(static_cast<HintSetId>(h), hints_.priority[h]);
    }
  }
  return out;
}

}  // namespace clic
