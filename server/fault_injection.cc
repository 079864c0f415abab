#include "server/fault_injection.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace clic::server::fault {
namespace {

constexpr char kValidClauses[] =
    "valid clauses: seed=N, "
    "stall:shard=N,after=N,drains=N,ms=F, "
    "pause:consumer=N,after=N,batches=N,ms=F, "
    "shed:every=N, corrupt:every=N,flips=N, "
    "net:torn-write=N,partial-read=N,reset=N,accept-stall=N,stall-ms=F";

bool Fail(std::string* error, const std::string& message) {
  *error = message + " (" + kValidClauses + ")";
  return false;
}

bool ParseCount(const std::string& clause, const std::string& key,
                const std::string& value, std::uint64_t* out,
                std::string* error) {
  errno = 0;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || value[0] == '+' || errno != 0 ||
      end == value.c_str() || *end != '\0') {
    return Fail(error, "fault plan clause '" + clause + "': " + key + "='" +
                           value + "' is not a non-negative integer");
  }
  *out = parsed;
  return true;
}

bool ParseMs(const std::string& clause, const std::string& key,
             const std::string& value, double* out, std::string* error) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || errno != 0 || end == value.c_str() || *end != '\0' ||
      !std::isfinite(parsed) || parsed < 0.0) {
    return Fail(error, "fault plan clause '" + clause + "': " + key + "='" +
                           value + "' is not a finite non-negative number");
  }
  *out = parsed;
  return true;
}

/// Splits "k1=v1,k2=v2" into pairs; malformed pairs fail with the
/// clause named.
bool SplitPairs(const std::string& clause, const std::string& body,
                std::vector<std::pair<std::string, std::string>>* out,
                std::string* error) {
  std::size_t start = 0;
  while (start <= body.size()) {
    const std::size_t comma = body.find(',', start);
    const std::size_t end = comma == std::string::npos ? body.size() : comma;
    const std::string pair = body.substr(start, end - start);
    const std::size_t eq = pair.find('=');
    if (pair.empty() || eq == std::string::npos || eq == 0) {
      return Fail(error, "fault plan clause '" + clause +
                             "': malformed key=value pair '" + pair + "'");
    }
    out->emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

}  // namespace

bool ParseFaultPlan(const std::string& spec, FaultPlan* out,
                    std::string* error) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::size_t end = semi == std::string::npos ? spec.size() : semi;
    const std::string clause = spec.substr(start, end - start);
    if (clause.empty()) {
      return Fail(error, "fault plan contains an empty clause");
    }
    const std::size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      // Top-level key=value: seed.
      const std::size_t eq = clause.find('=');
      if (eq == std::string::npos) {
        return Fail(error, "fault plan clause '" + clause +
                               "' is neither key=value nor kind:...");
      }
      const std::string key = clause.substr(0, eq);
      const std::string value = clause.substr(eq + 1);
      if (key == "seed") {
        if (!ParseCount(clause, key, value, &plan.seed, error)) return false;
      } else {
        return Fail(error,
                    "fault plan: unknown top-level key '" + key + "'");
      }
    } else {
      const std::string kind = clause.substr(0, colon);
      std::vector<std::pair<std::string, std::string>> pairs;
      if (!SplitPairs(clause, clause.substr(colon + 1), &pairs, error)) {
        return false;
      }
      if (kind == "stall") {
        ShardStall s;
        std::uint64_t shard = 0;
        for (const auto& [key, value] : pairs) {
          if (key == "shard") {
            if (!ParseCount(clause, key, value, &shard, error)) return false;
            s.shard = static_cast<std::size_t>(shard);
          } else if (key == "after") {
            if (!ParseCount(clause, key, value, &s.after_drain, error)) {
              return false;
            }
          } else if (key == "drains") {
            if (!ParseCount(clause, key, value, &s.drains, error)) {
              return false;
            }
          } else if (key == "ms") {
            if (!ParseMs(clause, key, value, &s.ms, error)) return false;
          } else {
            return Fail(error, "fault plan clause '" + clause +
                                   "': unknown stall key '" + key + "'");
          }
        }
        plan.stalls.push_back(s);
      } else if (kind == "pause") {
        ConsumerPause p;
        std::uint64_t consumer = 0;
        for (const auto& [key, value] : pairs) {
          if (key == "consumer") {
            if (!ParseCount(clause, key, value, &consumer, error)) {
              return false;
            }
            p.consumer = static_cast<std::size_t>(consumer);
          } else if (key == "after") {
            if (!ParseCount(clause, key, value, &p.after_batch, error)) {
              return false;
            }
          } else if (key == "batches") {
            if (!ParseCount(clause, key, value, &p.batches, error)) {
              return false;
            }
          } else if (key == "ms") {
            if (!ParseMs(clause, key, value, &p.ms, error)) return false;
          } else {
            return Fail(error, "fault plan clause '" + clause +
                                   "': unknown pause key '" + key + "'");
          }
        }
        plan.pauses.push_back(p);
      } else if (kind == "shed") {
        for (const auto& [key, value] : pairs) {
          if (key == "every") {
            if (!ParseCount(clause, key, value, &plan.shed_every, error)) {
              return false;
            }
          } else {
            return Fail(error, "fault plan clause '" + clause +
                                   "': unknown shed key '" + key + "'");
          }
        }
        if (plan.shed_every == 0) {
          return Fail(error, "fault plan clause '" + clause +
                                 "': shed needs every=N with N >= 1");
        }
      } else if (kind == "corrupt") {
        std::uint64_t flips = 1;
        for (const auto& [key, value] : pairs) {
          if (key == "every") {
            if (!ParseCount(clause, key, value, &plan.corrupt_every, error)) {
              return false;
            }
          } else if (key == "flips") {
            if (!ParseCount(clause, key, value, &flips, error)) return false;
            plan.corrupt_flips = static_cast<std::uint32_t>(flips);
          } else {
            return Fail(error, "fault plan clause '" + clause +
                                   "': unknown corrupt key '" + key + "'");
          }
        }
        if (plan.corrupt_every == 0 || plan.corrupt_flips == 0) {
          return Fail(error, "fault plan clause '" + clause +
                                 "': corrupt needs every>=1 and flips>=1");
        }
      } else if (kind == "net") {
        bool has_stall_ms = false;
        for (const auto& [key, value] : pairs) {
          if (key == "torn-write") {
            if (!ParseCount(clause, key, value, &plan.net_torn_write_every,
                            error)) {
              return false;
            }
          } else if (key == "partial-read") {
            if (!ParseCount(clause, key, value, &plan.net_partial_read_every,
                            error)) {
              return false;
            }
          } else if (key == "reset") {
            if (!ParseCount(clause, key, value, &plan.net_reset_every,
                            error)) {
              return false;
            }
          } else if (key == "accept-stall") {
            if (!ParseCount(clause, key, value, &plan.net_accept_stall_every,
                            error)) {
              return false;
            }
          } else if (key == "stall-ms") {
            if (!ParseMs(clause, key, value, &plan.net_accept_stall_ms,
                         error)) {
              return false;
            }
            has_stall_ms = true;
          } else {
            return Fail(error, "fault plan clause '" + clause +
                                   "': unknown net key '" + key + "'");
          }
        }
        if (!plan.HasNetFaults()) {
          return Fail(error,
                      "fault plan clause '" + clause +
                          "': net needs at least one of torn-write, "
                          "partial-read, reset, accept-stall with N >= 1");
        }
        if (has_stall_ms && plan.net_accept_stall_every == 0) {
          return Fail(error, "fault plan clause '" + clause +
                                 "': stall-ms only tunes accept-stall");
        }
      } else {
        return Fail(error, "fault plan: unknown clause kind '" + kind + "'");
      }
    }
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  *out = plan;
  return true;
}

}  // namespace clic::server::fault
