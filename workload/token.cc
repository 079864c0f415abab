#include "workload/token.h"

#include <utility>

#include "workload/trace_factory.h"

namespace clic {

std::optional<WorkloadToken> ResolveWorkloadToken(const std::string& token,
                                                  std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<WorkloadToken> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  WorkloadToken out;
  for (const NamedTraceInfo& info : NamedTraces()) {
    if (info.name == token) {
      out.length = info.target_requests;
      return out;
    }
  }
  std::string scenario_error;
  if (std::optional<WorkloadSpec> spec =
          ResolveWorkload(token, &scenario_error)) {
    out.kind = WorkloadToken::Kind::kScenario;
    out.length = spec->requests;
    out.scenario = std::move(*spec);
    return out;
  }

  std::string why;
  if (token.find('+') != std::string::npos) {
    out.kind = WorkloadToken::Kind::kInterleave;
    std::size_t start = 0;
    for (;;) {
      const std::size_t plus = token.find('+', start);
      const std::size_t end = plus == std::string::npos ? token.size() : plus;
      std::string part = token.substr(start, end - start);
      if (part.empty()) return fail("empty '+' component in '" + token + "'");
      if (!ResolveWorkloadToken(part, &why)) {
        return fail("part '" + part + "' of '" + token + "': " + why);
      }
      out.parts.push_back(std::move(part));
      if (plus == std::string::npos) return out;
      start = plus + 1;
    }
  }

  const std::string noise = "~noise=";
  const std::size_t at = token.rfind(noise);
  if (at == std::string::npos) return fail(scenario_error);
  const std::string base = token.substr(0, at);
  const std::string types = token.substr(at + noise.size());
  const bool digits =
      !types.empty() && types.size() <= 2 &&
      types.find_first_not_of("0123456789") == std::string::npos;
  const int noise_types = digits ? std::stoi(types) : -1;
  if (noise_types < 0 || noise_types > kMaxNoiseTypes) {
    return fail("noise T='" + types + "' in '" + token +
                "' is not an integer in [0, " +
                std::to_string(kMaxNoiseTypes) + "]");
  }
  if (!ResolveWorkloadToken(base, &why)) {
    return fail("noise base '" + base + "' of '" + token + "': " + why);
  }
  out.kind = WorkloadToken::Kind::kNoise;
  out.parts = {base};
  out.noise_types = noise_types;
  return out;
}

}  // namespace clic
