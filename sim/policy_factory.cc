#include "sim/policy_factory.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "policies/arc.h"
#include "policies/clock.h"
#include "policies/lru.h"
#include "policies/mq.h"
#include "policies/opt.h"
#include "policies/tq.h"
#include "policies/two_q.h"

namespace clic {

namespace {

template <typename P>
std::unique_ptr<Policy> Make(std::size_t cache_pages, const Trace*,
                             const ClicOptions&) {
  return std::make_unique<P>(cache_pages);
}

std::unique_ptr<Policy> MakeOpt(std::size_t cache_pages, const Trace* trace,
                                const ClicOptions&) {
  if (trace == nullptr) {
    std::fprintf(stderr, "MakePolicy(kOpt) requires a trace\n");
    std::exit(1);
  }
  return std::make_unique<OptPolicy>(cache_pages, *trace);
}

std::unique_ptr<Policy> MakeClic(std::size_t cache_pages, const Trace*,
                                 const ClicOptions& options) {
  return std::make_unique<ClicPolicy>(cache_pages, options);
}

/// The one policy table, in AllPolicies() order: the paper's legend
/// order, then the related-work baselines.
struct PolicyRow {
  PolicyKind kind;
  const char* name;
  std::unique_ptr<Policy> (*make)(std::size_t cache_pages, const Trace* trace,
                                  const ClicOptions& options);
};
constexpr PolicyRow kPolicies[] = {
    {PolicyKind::kOpt, "OPT", MakeOpt},
    {PolicyKind::kTq, "TQ", Make<TqPolicy>},
    {PolicyKind::kLru, "LRU", Make<LruPolicy>},
    {PolicyKind::kArc, "ARC", Make<ArcPolicy>},
    {PolicyKind::kClic, "CLIC", MakeClic},
    {PolicyKind::kClock, "CLOCK", Make<ClockPolicy>},
    {PolicyKind::kTwoQ, "2Q", Make<TwoQPolicy>},
    {PolicyKind::kMq, "MQ", Make<MqPolicy>},
};

const PolicyRow* RowOf(PolicyKind kind) {
  for (const PolicyRow& row : kPolicies) {
    if (row.kind == kind) return &row;
  }
  return nullptr;
}

}  // namespace

const char* PolicyName(PolicyKind kind) {
  const PolicyRow* row = RowOf(kind);
  return row != nullptr ? row->name : "?";
}

const std::vector<PolicyKind>& AllPolicies() {
  static const std::vector<PolicyKind> kinds = [] {
    std::vector<PolicyKind> out;
    for (const PolicyRow& row : kPolicies) out.push_back(row.kind);
    return out;
  }();
  return kinds;
}

std::optional<PolicyKind> ParsePolicyKind(std::string_view name) {
  auto equals_ignore_case = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(a[i])) !=
          std::toupper(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  };
  for (const PolicyRow& row : kPolicies) {
    if (equals_ignore_case(name, row.name)) return row.kind;
  }
  if (equals_ignore_case(name, "TWOQ")) return PolicyKind::kTwoQ;
  return std::nullopt;
}

std::unique_ptr<Policy> MakePolicy(PolicyKind kind, std::size_t cache_pages,
                                   const Trace* trace,
                                   const ClicOptions& options) {
  const PolicyRow* row = RowOf(kind);
  return row != nullptr ? row->make(cache_pages, trace, options) : nullptr;
}

}  // namespace clic
