// Decision-tree hint-set generalization (the paper's Section 8
// extension, exercised by `clic_sweep --figure=10`). Hint sets are
// grouped into classes by recursively splitting on the attribute
// position whose values best explain the observed re-reference rates;
// positions whose values carry no signal (e.g. injected noise
// attributes) are never selected, so noisy variants of one real hint set
// collapse back into a single class whose pooled statistics match the
// original.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/trace.h"

namespace clic {

struct HintSample {
  HintSetId hint = 0;
  std::uint64_t weight = 0;  // references in the window
  double rate = 0.0;         // re-references per reference
};

class HintClassTree {
 public:
  struct Params {
    int max_depth = 6;
    double min_gain = 1e-4;       // relative variance reduction floor
    std::uint64_t min_weight = 8; // don't split tiny populations
  };

  HintClassTree(const HintRegistry& space,
                const std::vector<HintSample>& samples);
  HintClassTree(const HintRegistry& space,
                const std::vector<HintSample>& samples,
                const Params& params);

  /// Class of a sampled hint set; hints not in the sample map to their
  /// own singleton class id (kUnsampled).
  static constexpr std::uint32_t kUnsampled = 0xFFFFFFFFu;
  std::uint32_t ClassOf(HintSetId h) const {
    auto it = class_of_.find(h);
    return it == class_of_.end() ? kUnsampled : it->second;
  }

  std::uint32_t num_classes() const { return num_classes_; }

 private:
  void Split(const HintRegistry& space,
             const std::vector<HintSample>& samples,
             std::vector<std::uint32_t>& members, std::uint64_t used_mask,
             int depth, const Params& params);

  std::unordered_map<HintSetId, std::uint32_t> class_of_;
  std::uint32_t num_classes_ = 0;
};

}  // namespace clic
