#include "server/serve_cli.h"

#include <algorithm>

#include "server/net/wire_format.h"

namespace clic::server {
namespace {

using cli::Form;

/// Every row of clic_serve, pointing into *p. The network tuning group
/// is third from the end.
cli::FlagTable ServeTable(cli::Parsed<ServeCommand>* p) {
  ServeCommand& o = p->options;
  return {
      {"Workload (see --list; workload/token.h has the grammar)",
       {cli::Row("--trace", Form::kWorkload, "NAME", &o.trace,
                 "workload token to replay"),
        cli::Row("--workload", Form::kWorkload, "SPEC", &o.trace,
                 "alias of --trace; give exactly one"),
        cli::Row("--requests", Form::kN, "N", &o.requests,
                 "request budget (overrides CLIC_BENCH_REQUESTS)"),
        cli::Row("--cache-dir", Form::kText, "PATH", &o.cache_dir,
                 "trace cache (overrides CLIC_TRACE_CACHE_DIR)")}},
      {"Server",
       {cli::OneOf("--policy", "NAME", cli::PolicyChoices(), &o.server.policy,
                   "shard policy (default LRU; OPT is not servable)", true),
        cli::Row("--shards", Form::kN, "S", &o.server.shards,
                 "hash shards, each with its own policy (default 4)", 4096),
        cli::Row("--cache-pages", Form::kN, "N", &o.server.cache_pages,
                 "cache budget split across shards (default 12000)"),
        cli::Row("--clients", Form::kN, "C", &o.load.clients,
                 "clients, 16 batches in flight each (default 4)", 4096),
        cli::Row("--batch", Form::kN, "B", &o.load.batch_size,
                 "requests per batch (default 64)"),
        cli::Row("--consumers", Form::kN, "K", &o.server.consumers,
                 "consumer k owns shards k, k+K, ... (default auto)", 4096),
        cli::Switch("--deterministic", &o.server.deterministic, true,
                    "clients in turn: hits match per-shard Simulate()"),
        cli::Switch("--verify", &o.verify, true,
                    "check --deterministic hits in-process; exit 1 if not")}},
      {"Overload resilience (all off by default)",
       {cli::Row("--deadline-ms", Form::kF, "F", &o.server.batch_deadline_ms,
                 "drop batches not started this long after admission"),
        cli::Row("--fault-plan", "SPEC",
                 [&o](const std::string& spec) {
                   std::string error;
                   fault::ParseFaultPlan(spec, &o.fault_plan, &error);
                   return error;
                 },
                 "fault injection (server/fault_injection.h)")}},
      {"Network front end (server/net/)",
       {cli::Switch("--listen", &o.listen, true,
                    "serve the wire protocol until SIGTERM/SIGINT"),
        cli::Row("--listen", Form::kText, "ADDR", &o.net.listen_addr,
                 "the same on ADDR (default 127.0.0.1)"),
        cli::Switch("--connect", &o.connect, true,
                    "replay through an in-process loopback server")}},
      {"Network tuning (with --listen or --connect)",
       {cli::Row("--port", Form::kNOrZero, "N", &o.net.port,
                 "TCP port for --listen (0 = ephemeral)", 65535),
        cli::Row("--io-threads", Form::kN, "N", &o.net.io_threads,
                 "connection threads (default 1)", 1024),
        cli::Row("--conn-limit", Form::kN, "N", &o.net.conn_limit,
                 "connections (default: clients, or 64 with --listen)",
                 65536),
        cli::Row("--read-timeout-ms", Form::kF, "F", &o.net.read_timeout_ms,
                 "evict a connection with a partial frame this old")}},
      {"CLIC options (with --policy=CLIC)", cli::ClicRows(&o.server.clic)},
      {"Output",
       {cli::OneOf("--format", "", {{"csv", "csv"}, {"json", "json"}},
                   &o.format, "summary row (csv) or full object (json)"),
        cli::Row("--output", Form::kText, "FILE", &o.output,
                 "default: stdout"),
        cli::Switch("--list", &p->action, cli::Action::kList,
                    "print known traces and policies, then exit"),
        cli::Switch("--help", &p->action, cli::Action::kHelp, "this text"),
        cli::Switch("-h", &p->action, cli::Action::kHelp, "the same")}},
  };
}

std::string VerifyWith(const char* what, const char* why) {
  return std::string("--verify cannot be combined with ") + what + " (" +
         why + ")";
}

/// The cross-flag rules, in the order they are checked.
std::vector<cli::Rule> ServeRules(const ServeCommand& o,
                                  const cli::Given& given,
                                  const cli::FlagGroup& tuning) {
  std::vector<std::string> tuning_names, policies;
  bool tuned = false;
  for (const cli::Flag& flag : tuning.flags) {
    tuning_names.push_back(flag.name);
    tuned = tuned || given.count(flag.name) != 0;
  }
  for (const auto& [name, kind] : cli::PolicyChoices()) {
    if (kind != PolicyKind::kOpt) policies.push_back(name);
  }
  const auto trace = given.find("--trace");
  const auto workload = given.find("--workload");
  const bool both = trace != given.end() && workload != given.end();
  const std::string clic_error = cli::ClicOptionsError(o.server.clic);
  return {
      {both, "--trace and --workload are aliases; give exactly one workload "
             "(got '" +
                 (both ? trace->second + "' and '" + workload->second : "") +
                 "')"},
      {o.server.policy == PolicyKind::kOpt,
       "--policy=OPT: OPT is clairvoyant and cannot serve an online stream "
       "(valid policies: " +
           cli::Join(policies, ", ") + ")"},
      {o.trace.empty(), "--trace (or --workload) is required (valid traces: " +
                            cli::KnownWorkloadNames() + ")"},
      {!clic_error.empty(), clic_error},
      {o.verify && !o.server.deterministic,
       "--verify requires --deterministic (concurrent interleaving is "
       "timing-dependent by design)"},
      {o.server.consumers > o.server.shards,
       "--consumers=" + std::to_string(o.server.consumers) +
           " exceeds --shards=" + std::to_string(o.server.shards) +
           " (a consumer must own at least one shard)"},
      {o.listen && o.connect,
       "--listen and --connect are mutually exclusive: serve remote clients "
       "OR drive a loopback server (valid combinations: --listen "
       "[--port=N], --connect [--deterministic --verify])"},
      {!o.listen && !o.connect && tuned,
       cli::Join(tuning_names, "/") +
           " configure the network front end; add --listen (standalone "
           "server) or --connect (loopback wire serving)"},
      {o.listen && (o.verify || o.server.deterministic),
       std::string(o.verify ? "--verify" : "--deterministic") +
           " needs a driver in this process: --listen serves remote clients, "
           "whose order no flag sets and whose stream the in-process "
           "verifier cannot replay (valid combinations: --connect "
           "--deterministic --verify for the wire-level gate, "
           "--deterministic --verify for in-process, or --listen without "
           "either)"},
      {o.connect && o.load.batch_size > net::kWireMaxBatch,
       "--batch=" + std::to_string(o.load.batch_size) + " exceeds " +
           std::to_string(net::kWireMaxBatch) +
           ", the most requests one wire frame carries (its count field is "
           "16 bits); --connect needs a smaller batch"},
      {o.connect && o.net.conn_limit > 0 && o.net.conn_limit < o.load.clients,
       "--conn-limit=" + std::to_string(o.net.conn_limit) +
           " is below --clients=" +
           std::to_string(o.load.clients) +
           " (every wire driver holds one connection; the table would shed "
           "drivers at accept time)"},
      // --verify proves bit-identity against a sequential baseline; these
      // mechanisms are timing-dependent (deadlines) or mutate requests
      // (corruption), so no baseline exists for them.
      {o.verify && o.fault_plan.HasCorruption(),
       VerifyWith("a corrupt: fault clause",
                  "corruption mutates served requests, so no fault-free "
                  "baseline matches")},
      {o.verify && o.fault_plan.net_reset_every > 0,
       VerifyWith("a net:reset fault clause",
                  "a reset truncates that connection's served stream, so no "
                  "baseline matches; torn-write/partial-read/accept-stall "
                  "only re-chunk or delay bytes and remain verifiable")},
      {o.verify && o.server.batch_deadline_ms > 0.0,
       VerifyWith("--deadline-ms",
                  "deadline expiry is wall-clock dependent, so the served "
                  "set is not reproducible")},
  };
}

}  // namespace

cli::Parsed<ServeCommand> ParseServeCommand(
    const std::vector<std::string>& args) {
  cli::Parsed<ServeCommand> p;
  ServeCommand& o = p.options;
  o.server.shards = 4;
  o.server.cache_pages = 12'000;
  o.load.clients = 4;
  o.net.conn_limit = 0;
  const cli::FlagTable table = ServeTable(&p);
  cli::Given given;
  p.text = cli::ParseArgs(table, args, &given, &p.action);
  o.listen = given.count("--listen") != 0;
  o.has_fault_plan = given.count("--fault-plan") != 0;
  if (p.text.empty() && p.action == cli::Action::kRun) {
    p.text = cli::FirstBroken(ServeRules(o, given, table[table.size() - 3]));
  }
  if (!p.text.empty()) {
    p.action = cli::Action::kReject;
  } else if (p.action == cli::Action::kHelp) {
    p.text = cli::Help(
        "Usage: clic_serve --trace=NAME | --workload=SPEC [flags]", table);
  }
  return p;
}

net::NetServerOptions NetServerOptionsFor(const ServeCommand& command) {
  net::NetServerOptions options = command.net;
  options.server = command.server;
  if (command.connect) {
    options.listen_addr = "127.0.0.1";
    options.port = 0;
    options.max_batch = std::max(options.max_batch, command.load.batch_size);
  }
  if (options.conn_limit == 0) {
    options.conn_limit =
        command.connect ? std::max<std::size_t>(command.load.clients, 1) : 64;
  }
  return options;
}

}  // namespace clic::server
