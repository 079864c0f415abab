#include "policies/opt.h"

#include <algorithm>

namespace clic {

OptPolicy::OptPolicy(std::size_t cache_pages, const Trace& trace)
    : cache_pages_(std::max<std::size_t>(1, cache_pages)) {
  const std::size_t n = trace.requests.size();
  next_use_.resize(n, kNever);
  PageId max_page = 0;
  for (const Request& r : trace.requests) {
    max_page = std::max(max_page, r.page);
  }
  cur_next_.assign(static_cast<std::size_t>(max_page) + 1, kNever);
  resident_.assign(static_cast<std::size_t>(max_page) + 1, 0);
  // Backward pass: next_use_[i] = next index at which requests[i].page
  // recurs. cur_next_ doubles as the "last seen" scratch here and is
  // reset before simulation starts.
  for (std::size_t i = n; i-- > 0;) {
    const PageId page = trace.requests[i].page;
    next_use_[i] = cur_next_[page];
    cur_next_[page] = i;
  }
  std::fill(cur_next_.begin(), cur_next_.end(), kNever);
  heap_.reserve(1 << 16);
}

// clic-lint: hot-path
inline bool OptPolicy::AccessOne(const Request& r, SeqNum seq) {
  const SeqNum nu = seq < next_use_.size() ? next_use_[seq] : kNever;
  if (resident_[r.page]) {
    cur_next_[r.page] = nu;
    heap_.emplace_back(nu, r.page);  // clic-lint: allow(no-alloc-hot-path) reason=OPT is offline/clairvoyant and never serves online; lazy-deletion heap growth is its core algorithm
    std::push_heap(heap_.begin(), heap_.end());
    return true;
  }
  if (count_ >= cache_pages_) {
    // Pop until the top entry reflects a resident page's current next
    // use; stale entries (superseded or evicted) are discarded lazily.
    for (;;) {
      const auto [key, page] = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      if (resident_[page] && cur_next_[page] == key) {
        resident_[page] = 0;
        --count_;
        break;
      }
    }
  }
  resident_[r.page] = 1;
  cur_next_[r.page] = nu;
  heap_.emplace_back(nu, r.page);  // clic-lint: allow(no-alloc-hot-path) reason=OPT is offline/clairvoyant and never serves online; lazy-deletion heap growth is its core algorithm
  std::push_heap(heap_.begin(), heap_.end());
  ++count_;
  return false;
}

// clic-lint: hot-path
void OptPolicy::AccessBatch(const Request* reqs, SeqNum first_seq,
                            std::size_t n, std::uint8_t* hits_out) {
  // No PageTable here: the per-page state is the resident_ / cur_next_
  // pair, so those are what the far step warms, and the near step has
  // nothing left to chase.
  PipelinedBatch(reqs, first_seq, 0, n, n, hits_out,
                 [this](PageId p) {
                   __builtin_prefetch(&resident_[p], 0, 1);
                   __builtin_prefetch(&cur_next_[p], 0, 1);
                 },
                 [](PageId) {},
                 [this](const Request& r, SeqNum seq) {
                   return AccessOne(r, seq);
                 });
}

}  // namespace clic
