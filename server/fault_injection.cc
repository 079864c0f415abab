#include "server/fault_injection.h"

#include <set>

#include "common/text_parse.h"

namespace clic::server::fault {
namespace {

template <typename Target>
using Keys = std::vector<parse::Key<Target>>;

/// The plan grammar's key tables: `seed` stands alone, every other
/// clause is kind:key=value,...
struct Grammar {
  Keys<FaultPlan> seed;
  Keys<ShardStall> stall;
  Keys<ConsumerPause> pause;
  Keys<FaultPlan> shed;
  Keys<FaultPlan> corrupt;
  Keys<FaultPlan> net;
};

const Grammar& PlanGrammar() {
  static const Grammar grammar = {
      {parse::UnsignedKey("seed", &FaultPlan::seed)},
      {parse::UnsignedKey("shard", &ShardStall::shard),
       parse::UnsignedKey("after", &ShardStall::after_drain),
       parse::UnsignedKey("drains", &ShardStall::drains),
       parse::RealKey("ms", &ShardStall::ms)},
      {parse::UnsignedKey("consumer", &ConsumerPause::consumer),
       parse::UnsignedKey("after", &ConsumerPause::after_batch),
       parse::UnsignedKey("batches", &ConsumerPause::batches),
       parse::RealKey("ms", &ConsumerPause::ms)},
      {parse::UnsignedKey("every", &FaultPlan::shed_every)},
      {parse::UnsignedKey("every", &FaultPlan::corrupt_every),
       parse::UnsignedKey("flips", &FaultPlan::corrupt_flips)},
      {parse::UnsignedKey("torn-write", &FaultPlan::net_torn_write_every),
       parse::UnsignedKey("partial-read", &FaultPlan::net_partial_read_every),
       parse::UnsignedKey("reset", &FaultPlan::net_reset_every),
       parse::UnsignedKey("accept-stall", &FaultPlan::net_accept_stall_every),
       parse::RealKey("stall-ms", &FaultPlan::net_accept_stall_ms)},
  };
  return grammar;
}

std::string ValidClauses(const Grammar& g) {
  return "valid clauses: " + parse::KeyList(g.seed, ",") +
         ", stall:" + parse::KeyList(g.stall, ",") +
         ", pause:" + parse::KeyList(g.pause, ",") +
         ", shed:" + parse::KeyList(g.shed, ",") +
         ", corrupt:" + parse::KeyList(g.corrupt, ",") +
         ", net:" + parse::KeyList(g.net, ",");
}

}  // namespace

bool ParseFaultPlan(const std::string& spec, FaultPlan* out,
                    std::string* error) {
  const Grammar& g = PlanGrammar();
  const auto fail = [&](const std::string& message) {
    *error = message + " (" + ValidClauses(g) + ")";
    return false;
  };
  FaultPlan plan;
  std::set<std::string> given;  // seed, shed, corrupt, each net: key
  for (const std::string& clause : parse::Split(spec, ';')) {
    if (clause.empty()) return fail("fault plan contains an empty clause");
    const auto bad = [&](const std::string& why) {
      return fail("fault plan clause '" + clause + "': " + why);
    };
    const std::size_t colon = clause.find(':');
    const std::string kind = clause.substr(0, colon);
    const std::string body =
        colon == std::string::npos ? clause : clause.substr(colon + 1);
    std::string why;
    if (colon == std::string::npos) {
      if (!parse::KeyValues(body, g.seed, &plan, &why)) return bad(why);
    } else if (kind == "stall") {
      ShardStall stall;
      if (!parse::KeyValues(body, g.stall, &stall, &why)) return bad(why);
      plan.stalls.push_back(stall);
    } else if (kind == "pause") {
      ConsumerPause pause;
      if (!parse::KeyValues(body, g.pause, &pause, &why)) return bad(why);
      plan.pauses.push_back(pause);
    } else if (kind == "shed") {
      if (!parse::KeyValues(body, g.shed, &plan, &why)) return bad(why);
      if (plan.shed_every == 0) return bad("shed needs every=N with N >= 1");
    } else if (kind == "corrupt") {
      if (!parse::KeyValues(body, g.corrupt, &plan, &why)) return bad(why);
      if (plan.corrupt_every == 0 || plan.corrupt_flips == 0) {
        return bad("corrupt needs every>=1 and flips>=1");
      }
    } else if (kind == "net") {
      // stall-ms only tunes accept-stall. No text parses to a negative
      // F, so -1 marks it absent from this clause.
      const double stall_ms = plan.net_accept_stall_ms;
      plan.net_accept_stall_ms = -1.0;
      if (!parse::KeyValues(body, g.net, &plan, &why)) return bad(why);
      const bool has_stall_ms = plan.net_accept_stall_ms >= 0.0;
      if (!has_stall_ms) plan.net_accept_stall_ms = stall_ms;
      if (!plan.HasNetFaults()) {
        return bad("net needs at least one of torn-write, partial-read, "
                   "reset, accept-stall with N >= 1");
      }
      if (has_stall_ms && plan.net_accept_stall_every == 0) {
        return bad("stall-ms only tunes accept-stall");
      }
    } else {
      return fail("fault plan: unknown clause kind '" + kind + "'");
    }
    // A setting is given once; stall: and pause: clauses add up.
    std::vector<std::string> settings;
    if (kind == "net") {
      for (const std::string& pair : parse::Split(body, ',')) {
        settings.push_back("net:" + pair.substr(0, pair.find('=')));
      }
    } else if (kind != "stall" && kind != "pause") {
      settings.push_back(colon == std::string::npos ? "seed" : kind);
    }
    for (const std::string& setting : settings) {
      if (!given.insert(setting).second) {
        return bad(setting + " given twice (only stall: and pause: clauses "
                             "add up)");
      }
    }
  }
  *out = plan;
  return true;
}

}  // namespace clic::server::fault
