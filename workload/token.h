// Workload tokens: the one grammar every trace-accepting flag
// (clic_sweep --traces, clic_serve --trace/--workload) and the trace
// cache (sweep/trace_cache.h) resolve through.
//
//   <named paper trace> | <scenario preset> | <inline scenario spec>
//   <token>~noise=<T>   Section 6.3 noise injection over <token>
//   <a>+<b>[+...]       round-robin Interleave of the parts (Figure 11)
//
// A token that resolves as a named trace or a scenario is never split,
// so every such token means exactly what the scenario parser reads.
// Otherwise '+' splits first, so 'A~noise=1+B' interleaves a noisy A
// with a plain B; a part then splits at its last '~noise='.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/scenario.h"

namespace clic {

/// Figure 10's noise: T extra hint attributes per request, drawn from
/// Zipf(kNoiseDomain, kNoiseZipf) with seed kNoiseSeedBase + T.
inline constexpr int kNoiseDomain = 10;
inline constexpr double kNoiseZipf = 1.0;
inline constexpr std::uint64_t kNoiseSeedBase = 0xF16;
inline constexpr int kMaxNoiseTypes = 8;

/// How a token's trace is produced.
struct WorkloadToken {
  enum class Kind { kNamed, kScenario, kNoise, kInterleave };
  Kind kind = Kind::kNamed;
  /// kNamed / kScenario: the full trace length, before any request cap.
  std::uint64_t length = 0;
  /// kScenario: the parsed spec.
  WorkloadSpec scenario;
  /// kNoise: the base token. kInterleave: the parts, in client-id order.
  std::vector<std::string> parts;
  /// kNoise: T, the number of noise hint types.
  int noise_types = 0;
};

/// Resolves a workload token. Unknown names, malformed specs, an empty
/// '+' component and a T outside [0, kMaxNoiseTypes] yield nullopt with
/// a one-line reason naming the offending token in *error.
std::optional<WorkloadToken> ResolveWorkloadToken(const std::string& token,
                                                  std::string* error = nullptr);

/// Splits a ','-separated list of workload tokens (clic_sweep --traces).
/// A segment with no ':' whose text before its first '=' is a scenario
/// key continues the inline spec before it, so
/// 'zipf:pages=120000,theta=0.9,DB2_C60' is two tokens. An empty segment,
/// or a key segment with no inline spec before it, yields nullopt with a
/// one-line reason naming it in *error. The tokens are not resolved.
std::optional<std::vector<std::string>> SplitWorkloadList(
    const std::string& list, std::string* error = nullptr);

}  // namespace clic
