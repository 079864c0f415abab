// Direct-indexed page -> slot map. Page ids in every workload are dense
// (0 .. db_pages), so this is a flat vector lookup — no hashing anywhere
// on any access path. Shared by the policy zoo and the CLIC engine.
#pragma once

#include <vector>

#include "core/trace.h"

namespace clic {

/// Grown on demand; the growth is amortized and stops once the largest
/// page id has been seen.
class PageTable {
 public:
  std::uint32_t Get(PageId page) const {
    return page < table_.size() ? table_[page] : kInvalidIndex;
  }
  void Set(PageId page, std::uint32_t slot) {
    if (page >= table_.size()) {
      table_.resize(static_cast<std::size_t>(page) + page / 2 + 64,
                    kInvalidIndex);
    }
    table_[page] = slot;
  }
  void Clear(PageId page) {
    if (page < table_.size()) table_[page] = kInvalidIndex;
  }
  /// Hints the cache that Get(page) is imminent. The batch loop
  /// (PipelinedBatch, policies/common.h) issues this for request i+k
  /// while processing request i, so the (random-access) page-table load
  /// is warm by the time it is needed. Read-only: never grows the table.
  void Prefetch(PageId page) const {
    if (page < table_.size()) __builtin_prefetch(&table_[page], 0, 1);
  }

 private:
  std::vector<std::uint32_t> table_;
};

}  // namespace clic
