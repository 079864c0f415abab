#include "workload/token.h"

#include <utility>

#include "common/text_parse.h"
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
    for (std::string& part : parse::Split(token, '+')) {
      if (part.empty()) return fail("empty '+' component in '" + token + "'");
      if (!ResolveWorkloadToken(part, &why)) {
        return fail("part '" + part + "' of '" + token + "': " + why);
      }
      out.parts.push_back(std::move(part));
    }
    return out;
  }

  const std::string noise = "~noise=";
  const std::size_t at = token.rfind(noise);
  if (at == std::string::npos) return fail(scenario_error);
  const std::string base = token.substr(0, at);
  const std::string types = token.substr(at + noise.size());
  unsigned noise_types = 0;
  if (!parse::Unsigned(types, &noise_types) ||
      noise_types > static_cast<unsigned>(kMaxNoiseTypes)) {
    return fail("noise T='" + types + "' in '" + token +
                "' is not an integer in [0, " +
                std::to_string(kMaxNoiseTypes) + "]");
  }
  if (!ResolveWorkloadToken(base, &why)) {
    return fail("noise base '" + base + "' of '" + token + "': " + why);
  }
  out.kind = WorkloadToken::Kind::kNoise;
  out.parts = {base};
  out.noise_types = static_cast<int>(noise_types);
  return out;
}

std::optional<std::vector<std::string>> SplitWorkloadList(
    const std::string& list, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + " in '" + list + "'";
    return std::nullopt;
  };
  std::vector<std::string> tokens;
  for (std::string& segment : parse::Split(list, ',')) {
    if (segment.empty()) return fail("empty token");
    const std::size_t eq = segment.find('=');
    const bool key_segment =
        eq != std::string::npos && segment.find(':') == std::string::npos &&
        parse::FindKey(ScenarioKeys(), segment.substr(0, eq)) != nullptr;
    if (!key_segment) {
      tokens.push_back(std::move(segment));
    } else if (!tokens.empty() &&
               tokens.back().find(':') != std::string::npos) {
      tokens.back().append(",").append(segment);
    } else {
      return fail("'" + segment + "' continues no inline spec");
    }
  }
  return tokens;
}

}  // namespace clic
