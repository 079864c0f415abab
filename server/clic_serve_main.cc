// clic_serve: drive the sharded online cache server with closed-loop
// clients replaying a named trace, and report throughput, batch latency
// percentiles, and hit statistics.
//
//   clic_serve --trace=DB2_C60 --policy=CLIC --shards=4 --clients=8
//              --cache-pages=12000 --requests=200000 --format=json
//   clic_serve --trace=DB2_C60 --policy=LRU --shards=2 --clients=2
//              --deterministic --verify
//
// --deterministic runs the single-consumer mode whose hit counts are
// bit-identical to per-shard sequential Simulate() of the partitioned
// trace; --verify checks exactly that in-process and fails loudly on
// any divergence.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cli_util.h"
#include "server/cache_server.h"
#include "server/net/net_server.h"
#include "server/net/wire_client.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"
#include "workload/scenario.h"
#include "workload/trace_factory.h"

namespace clic::server {
namespace {

constexpr char kProg[] = "clic_serve";

struct CliOptions {
  std::string trace;
  ServerOptions server;
  LoadOptions load;
  bool verify = false;
  std::string cache_dir;       // empty = CLIC_TRACE_CACHE_DIR / default
  std::uint64_t requests = 0;  // 0 = CLIC_BENCH_REQUESTS / default cap
  std::string format = "csv";
  std::string output;  // empty = stdout
  /// Parsed --fault-plan; server.fault points here when one was given
  /// (CliOptions is copied once out of Parse, so the pointer is wired
  /// up in Main after the copy settles).
  fault::FaultPlan fault_plan;
  bool has_fault_plan = false;

  // ---- network front end (server/net/) ----
  bool listen = false;   // standalone wire server until SIGTERM/SIGINT
  bool connect = false;  // loopback: in-process wire server + wire drivers
  std::string listen_addr = "127.0.0.1";
  std::uint16_t port = 0;       // 0 = ephemeral
  unsigned io_threads = 1;
  std::size_t conn_limit = 0;   // 0 = auto (clients / 64)
  double read_timeout_ms = 0.0;
};

void Usage(std::FILE* out) {
  std::fprintf(
      out,
      "Usage: clic_serve --trace=NAME | --workload=SPEC [flags]\n"
      "\n"
      "Workload:\n"
      "  --trace=NAME       named trace to replay (see --list)\n"
      "  --workload=SPEC    synthetic scenario: a preset name or inline\n"
      "                     spec like 'zipf:pages=120000,theta=0.9'\n"
      "                     (see --list; workload/token.h has the\n"
      "                     grammar). Alias of --trace — both accept\n"
      "                     every workload token; give exactly one.\n"
      "  --requests=N       request budget (overrides CLIC_BENCH_REQUESTS)\n"
      "  --cache-dir=PATH   trace cache dir (overrides "
      "CLIC_TRACE_CACHE_DIR)\n"
      "\n"
      "Server:\n"
      "  --policy=NAME      shard replacement policy (default LRU; OPT is\n"
      "                     clairvoyant and not servable)\n"
      "  --shards=S         hash shards, each with its own policy "
      "(default 4)\n"
      "  --cache-pages=N    total cache budget, split across shards\n"
      "                     (default 12000)\n"
      "  --clients=C        closed-loop client threads, each keeping up to\n"
      "                     16 batches in flight (default 4)\n"
      "  --batch=B          requests per submitted batch (default 64; at\n"
      "                     most 65535 with --connect)\n"
      "  --consumers=K      owning-consumer (core) threads; consumer k\n"
      "                     owns shards k, k+K, k+2K, ...; 0 = auto\n"
      "                     (min(shards, hardware cores)). Must be\n"
      "                     <= shards; forced to 1 by --deterministic\n"
      "  --deterministic    single consumer, strict client order: hit\n"
      "                     counts match per-shard sequential Simulate()\n"
      "  --verify           with --deterministic: check that equivalence\n"
      "                     in-process, exit 1 on any mismatch (with a\n"
      "                     shedding fault plan, the baseline excludes\n"
      "                     the deterministically shed batches)\n"
      "\n"
      "Overload resilience (all off by default):\n"
      "  --deadline-ms=F    drop batches older than this at drain time\n"
      "                     instead of serving them stale\n"
      "  --watchdog-ms=F    shed batches routed at a shard whose\n"
      "                     in-flight drain exceeds this threshold\n"
      "  --fault-plan=SPEC  deterministic fault injection, e.g.\n"
      "                     'stall:shard=0,after=10,drains=5,ms=50;\n"
      "                     shed:every=7;seed=42' (grammar in\n"
      "                     server/fault_injection.h)\n"
      "\n"
      "Network front end (server/net/ wire protocol over epoll):\n"
      "  --listen[=ADDR]    serve the wire protocol on ADDR (default\n"
      "                     127.0.0.1) until SIGTERM/SIGINT, then drain\n"
      "                     gracefully (in-flight frames -> `stopped`)\n"
      "  --connect          loopback mode: start an in-process wire server\n"
      "                     on an ephemeral port and replay the workload\n"
      "                     through real sockets; with --deterministic\n"
      "                     --verify this is the wire-level correctness\n"
      "                     gate\n"
      "  --port=N           TCP port for --listen (0..65535; 0 = "
      "ephemeral)\n"
      "  --io-threads=N     connection threads (must be 1 with\n"
      "                     --deterministic)\n"
      "  --conn-limit=N     connection table bound == server client ports\n"
      "                     (default: clients for --connect, 64 for\n"
      "                     --listen); a full table sheds at accept time\n"
      "  --read-timeout-ms=F  evict a connection whose partial frame is\n"
      "                     older than this (slowloris guard)\n"
      "\n"
      "CLIC options (when --policy=CLIC):\n"
      "%s"
      "\n"
      "Output:\n"
      "  --format=csv|json  summary row (csv) or full object (json)\n"
      "  --output=FILE      default: stdout\n"
      "  --list             print known traces and policies, then exit\n"
      "  --help             this text\n",
      cli::kClicFlagsHelp);
}

[[noreturn]] void Die(const std::string& message) { cli::Die(kProg, message); }

void PrintList() {
  std::printf("Traces:");
  for (const NamedTraceInfo& info : NamedTraces()) {
    std::printf(" %s", info.name.c_str());
  }
  std::printf("\nScenario presets:");
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    std::printf(" %s", preset.name);
  }
  std::printf("\nPolicies:");
  for (PolicyKind kind : AllPolicies()) {
    if (kind == PolicyKind::kOpt) continue;  // not servable online
    std::printf(" %s", PolicyName(kind));
  }
  std::printf("\n");
}

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  cli::ClicFlags clic_flags;
  bool net_tuning = false;  // any of --port/--io-threads/--conn-limit/...
  opts.server.shards = 4;
  opts.server.cache_pages = 12'000;
  opts.load.clients = 4;
  opts.load.batch_size = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      std::exit(0);
    }
    if (arg == "--list") {
      PrintList();
      std::exit(0);
    }
    if (arg == "--deterministic") {
      opts.server.deterministic = true;
      continue;
    }
    if (arg == "--listen") {
      opts.listen = true;
      continue;
    }
    if (arg == "--connect") {
      opts.connect = true;
      continue;
    }
    if (arg == "--verify") {
      opts.verify = true;
      continue;
    }
    if (clic_flags.Parse(kProg, arg)) continue;
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("unrecognized argument '" + arg + "'");
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "--trace" || key == "--workload") {
      if (!opts.trace.empty()) {
        Die("--trace and --workload are aliases; give exactly one "
            "workload (got '" +
            opts.trace + "' and '" + value + "')");
      }
      cli::RequireKnownWorkload(kProg, key, value);
      opts.trace = value;
    } else if (key == "--policy") {
      opts.server.policy = cli::RequirePolicy(kProg, key, value);
      if (opts.server.policy == PolicyKind::kOpt) {
        Die("--policy=OPT: OPT is clairvoyant and cannot serve an online "
            "stream (valid policies: " +
            cli::KnownPolicyNames() + ", minus OPT)");
      }
    } else if (key == "--shards") {
      const std::uint64_t shards = cli::ParseU64(kProg, key, value);
      if (shards > 4096) Die(key + "='" + value + "' is unreasonably large");
      opts.server.shards = static_cast<std::size_t>(shards);
    } else if (key == "--cache-pages") {
      opts.server.cache_pages =
          static_cast<std::size_t>(cli::ParseU64(kProg, key, value));
    } else if (key == "--consumers") {
      const std::uint64_t consumers = cli::ParseU64(kProg, key, value);
      if (consumers > 4096) Die(key + "='" + value + "' is unreasonably large");
      opts.server.consumers = static_cast<unsigned>(consumers);
    } else if (key == "--clients") {
      const std::uint64_t clients = cli::ParseU64(kProg, key, value);
      if (clients > 4096) Die(key + "='" + value + "' is unreasonably large");
      opts.load.clients = static_cast<std::size_t>(clients);
    } else if (key == "--batch") {
      opts.load.batch_size =
          static_cast<std::size_t>(cli::ParseU64(kProg, key, value));
    } else if (key == "--requests") {
      opts.requests = cli::ParseU64(kProg, key, value);
    } else if (key == "--deadline-ms") {
      opts.server.batch_deadline_ms = cli::ParseDouble(kProg, key, value);
    } else if (key == "--watchdog-ms") {
      opts.server.watchdog_ms = cli::ParseDouble(kProg, key, value);
    } else if (key == "--fault-plan") {
      std::string error;
      if (!fault::ParseFaultPlan(value, &opts.fault_plan, &error)) {
        Die(error);
      }
      opts.has_fault_plan = true;
    } else if (key == "--listen") {
      opts.listen = true;
      opts.listen_addr = value;
    } else if (key == "--port") {
      const std::uint64_t port = cli::ParseU64AllowZero(kProg, key, value);
      if (port > 65535) {
        Die("--port='" + value +
            "' is out of range (TCP ports are 0..65535; 0 binds an "
            "ephemeral port)");
      }
      opts.port = static_cast<std::uint16_t>(port);
      net_tuning = true;
    } else if (key == "--io-threads") {
      const std::uint64_t io = cli::ParseU64(kProg, key, value);
      if (io > 1024) Die(key + "='" + value + "' is unreasonably large");
      opts.io_threads = static_cast<unsigned>(io);
      net_tuning = true;
    } else if (key == "--conn-limit") {
      const std::uint64_t limit = cli::ParseU64(kProg, key, value);
      if (limit > 65536) Die(key + "='" + value + "' is unreasonably large");
      opts.conn_limit = static_cast<std::size_t>(limit);
      net_tuning = true;
    } else if (key == "--read-timeout-ms") {
      opts.read_timeout_ms = cli::ParseDouble(kProg, key, value);
      net_tuning = true;
    } else if (key == "--cache-dir") {
      opts.cache_dir = value;
    } else if (key == "--format") {
      if (value != "csv" && value != "json") {
        Die("unknown --format='" + value + "' (want csv or json)");
      }
      opts.format = value;
    } else if (key == "--output") {
      opts.output = value;
    } else {
      Die("unrecognized flag '" + key + "'");
    }
  }
  if (opts.trace.empty()) {
    Die("--trace (or --workload) is required (valid traces: " +
        cli::KnownWorkloadNames() + ")");
  }
  clic_flags.ApplyTo(opts.server.clic);
  cli::RequireValidAdaptiveWindow(kProg, opts.server.clic);
  if (opts.verify && !opts.server.deterministic) {
    Die("--verify requires --deterministic (concurrent interleaving is "
        "timing-dependent by design)");
  }
  if (opts.server.consumers > opts.server.shards) {
    Die("--consumers=" + std::to_string(opts.server.consumers) +
        " exceeds --shards=" + std::to_string(opts.server.shards) +
        " (a consumer must own at least one shard)");
  }
  if (opts.server.deterministic && opts.server.consumers > 1) {
    Die("--deterministic runs exactly one consumer (strict client order); "
        "drop --consumers=" + std::to_string(opts.server.consumers));
  }
  if (opts.listen && opts.connect) {
    Die("--listen and --connect are mutually exclusive: serve remote "
        "clients OR drive a loopback server (valid combinations: "
        "--listen [--port=N], --connect [--deterministic --verify])");
  }
  if (net_tuning && !opts.listen && !opts.connect) {
    Die("--port/--io-threads/--conn-limit/--read-timeout-ms configure the "
        "network front end; add --listen (standalone server) or "
        "--connect (loopback wire serving)");
  }
  if (opts.listen && opts.verify) {
    Die("--verify needs the loopback wire client: --listen serves remote "
        "clients whose stream the in-process verifier cannot replay "
        "(valid combinations: --connect --deterministic --verify for the "
        "wire-level gate, --deterministic --verify for in-process, or "
        "--listen without --verify)");
  }
  if (opts.connect && opts.server.deterministic && opts.io_threads > 1) {
    Die("--deterministic wire serving runs exactly one io thread (slots "
        "are assigned in strict accept order); drop --io-threads=" +
        std::to_string(opts.io_threads));
  }
  if (opts.connect && opts.load.batch_size > net::kWireMaxBatch) {
    Die("--batch=" + std::to_string(opts.load.batch_size) + " exceeds " +
        std::to_string(net::kWireMaxBatch) +
        ", the most requests one wire frame carries (its count field is "
        "16 bits); --connect needs a smaller batch");
  }
  if (opts.connect && opts.conn_limit > 0 &&
      opts.conn_limit < opts.load.clients) {
    Die("--conn-limit=" + std::to_string(opts.conn_limit) +
        " is below --clients=" + std::to_string(opts.load.clients) +
        " (every wire driver holds one connection; the table would shed "
        "drivers at accept time)");
  }
  if (opts.verify) {
    // --verify proves bit-identity against a sequential baseline; these
    // mechanisms are timing-dependent (watchdog, deadlines) or mutate
    // requests (corruption), so no baseline exists for them.
    if (opts.has_fault_plan && opts.fault_plan.HasCorruption()) {
      Die("--verify cannot be combined with a corrupt: fault clause "
          "(corruption mutates served requests, so no fault-free baseline "
          "matches)");
    }
    if (opts.has_fault_plan && opts.fault_plan.net_reset_every > 0) {
      Die("--verify cannot be combined with a net:reset fault clause (a "
          "reset truncates that connection's served stream, so no "
          "baseline matches; torn-write/partial-read/accept-stall only "
          "re-chunk or delay bytes and remain verifiable)");
    }
    if (opts.server.watchdog_ms > 0.0) {
      Die("--verify cannot be combined with --watchdog-ms (watchdog sheds "
          "are wall-clock dependent, so the served set is not "
          "reproducible)");
    }
    if (opts.server.batch_deadline_ms > 0.0) {
      Die("--verify cannot be combined with --deadline-ms (deadline "
          "expiry is wall-clock dependent, so the served set is not "
          "reproducible)");
    }
  }
  return opts;
}

/// The summary's one field list: the CSV header and row, and the JSON
/// object, which adds per_consumer_requests and per_shard.
sweep::Row SummaryRow(const CliOptions& opts, const ServeResult& r) {
  const auto json_list = [](const auto& items, const auto& to_json) {
    std::string out = "[";
    for (const auto& item : items) {
      if (out.size() > 1) out.push_back(',');
      out.append(to_json(item));
    }
    return out + "]";
  };
  const auto count = [](std::uint64_t n) { return std::to_string(n); };
  sweep::Row row;
  row.Text("trace", opts.trace)
      .Text("policy", PolicyName(opts.server.policy))
      .Count("shards", opts.server.shards)
      .Count("clients", opts.load.clients)
      .Count("cache_pages", opts.server.cache_pages)
      .Count("pages_per_shard",
             ShardCachePages(opts.server.cache_pages, opts.server.shards))
      .Count("batch", opts.load.batch_size)
      .Flag("deterministic", opts.server.deterministic)
      .Count("requests", r.requests)
      .Count("batches", r.admission.applied_batches)
      .Count("shard_drains", r.shard_drains)
      .Real("avg_drained_batch", r.avg_drained_batch)
      .Stats(r.total)
      .Count("submitted_requests", r.admission.submitted_requests)
      .Count("shed_requests", r.admission.shed_requests)
      .Count("expired_requests", r.admission.expired_requests)
      .Count("quarantined", r.quarantined)
      .Count("watchdog_sheds", r.watchdog_sheds)
      .Real("wall_seconds", r.timing.wall_seconds)
      .Real("throughput_rps", r.timing.throughput_rps)
      .Count("consumers", r.consumers)
      .Count("cores_detected", r.cores_detected)
      .Real("per_core_rps", r.timing.throughput_rps /
                                static_cast<double>(std::max(1u, r.consumers)))
      .JsonOnly("per_consumer_requests",
                json_list(r.per_consumer_requests, count))
      .Real("p50_us", r.timing.p50_us)
      .Real("p99_us", r.timing.p99_us)
      .JsonOnly("per_shard", json_list(r.per_shard, sweep::StatsJson))
      .PerClient(r);
  return row;
}

int Verify(const ServeResult& served, const SimResult& expected) {
  const std::string mismatch = ResultMismatch(served, expected);
  if (!mismatch.empty()) {
    std::fprintf(stderr,
                 "clic_serve: VERIFY FAILED — hit counts diverged from "
                 "per-shard sequential Simulate():\n%s",
                 mismatch.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "clic_serve: verify OK — aggregate and per-client hit counts "
               "bit-identical to per-shard sequential Simulate()\n");
  return 0;
}

/// The one ledger check every mode runs: a request the server neither
/// applied nor accounted for as rejected is a lost write from the
/// client's point of view. Prints the ledger when it does not balance.
bool LedgerBalanced(const char* which, const AdmissionStats& ledger) {
  if (ledger.Balanced()) return true;
  std::fprintf(stderr, "clic_serve: %s LEDGER BROKEN: %s\n", which,
               ledger.Describe().c_str());
  return false;
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

void PrintNetStats(const net::NetStats& n) {
  std::fprintf(
      stderr,
      "clic_serve: wire: %llu conns accepted (%llu shed), %llu frames / "
      "%llu requests in %llu reply writes, %llu rejected frames (%llu "
      "requests), %llu slowloris peers evicted by the read deadline, "
      "%llu frames drained to stopped\n",
      static_cast<unsigned long long>(n.accepted),
      static_cast<unsigned long long>(n.accept_shed),
      static_cast<unsigned long long>(n.frames),
      static_cast<unsigned long long>(n.frame_requests),
      static_cast<unsigned long long>(n.reply_writes),
      static_cast<unsigned long long>(n.rejected_frames),
      static_cast<unsigned long long>(n.rejected_requests),
      static_cast<unsigned long long>(n.evicted_read),
      static_cast<unsigned long long>(n.drained_frames));
  if (n.torn_writes + n.partial_reads + n.resets_injected + n.accept_stalls >
      0) {
    std::fprintf(
        stderr,
        "clic_serve: wire faults fired: %llu torn writes, %llu partial "
        "reads, %llu resets, %llu accept stalls\n",
        static_cast<unsigned long long>(n.torn_writes),
        static_cast<unsigned long long>(n.partial_reads),
        static_cast<unsigned long long>(n.resets_injected),
        static_cast<unsigned long long>(n.accept_stalls));
  }
}

/// Standalone wire server (--listen): serve until SIGTERM/SIGINT, then
/// drain gracefully and report the wire + admission ledgers.
int RunListen(const CliOptions& opts) {
  net::NetServerOptions nopts;
  nopts.listen_addr = opts.listen_addr;
  nopts.port = opts.port;
  nopts.io_threads = opts.io_threads;
  nopts.conn_limit = opts.conn_limit > 0 ? opts.conn_limit : 64;
  nopts.read_timeout_ms = opts.read_timeout_ms;
  nopts.server = opts.server;
  std::unique_ptr<net::NetServer> server;
  try {
    server = std::make_unique<net::NetServer>(nopts);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  std::fprintf(stderr,
               "clic_serve: listening on %s:%u (%u io thread%s, conn limit "
               "%zu); SIGTERM/SIGINT drains\n",
               nopts.listen_addr.c_str(), server->port(), nopts.io_threads,
               nopts.io_threads == 1 ? "" : "s", nopts.conn_limit);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "clic_serve: draining\n");
  server->Drain();
  PrintNetStats(server->Stats());
  const AdmissionStats adm = server->cache().TotalAdmission();
  if (!LedgerBalanced("ADMISSION", adm)) return 1;
  std::fprintf(stderr,
               "clic_serve: drained cleanly; %llu requests applied\n",
               static_cast<unsigned long long>(adm.applied_requests));
  return 0;
}

/// Loopback wire serving (--connect): in-process NetServer on an
/// ephemeral port, ServeTrace-chunked wire drivers through real
/// sockets. Fills *result with the server-side view (wire latencies for
/// p50/p99); returns non-zero if the wire ledger does not balance.
int RunWireServe(const CliOptions& opts, const Trace& trace,
                 ServeResult* result) {
  net::NetServerOptions nopts;
  nopts.listen_addr = "127.0.0.1";
  nopts.port = 0;
  nopts.io_threads = opts.io_threads;
  nopts.conn_limit = opts.conn_limit > 0
                         ? opts.conn_limit
                         : std::max<std::size_t>(opts.load.clients, 1);
  nopts.read_timeout_ms = opts.read_timeout_ms;
  nopts.max_batch = std::max<std::size_t>(4096, opts.load.batch_size);
  nopts.server = opts.server;
  std::unique_ptr<net::NetServer> server;
  try {
    server = std::make_unique<net::NetServer>(nopts);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  std::fprintf(stderr,
               "clic_serve: loopback wire serving on 127.0.0.1:%u (%u io "
               "thread%s, conn limit %zu)\n",
               server->port(), nopts.io_threads,
               nopts.io_threads == 1 ? "" : "s", nopts.conn_limit);
  net::WireLoadOptions wopts;
  wopts.addr = "127.0.0.1";
  wopts.port = server->port();
  wopts.clients = opts.load.clients;
  wopts.batch_size = opts.load.batch_size;
  wopts.deterministic = opts.server.deterministic;
  net::WireLoadResult wire;
  try {
    wire = net::RunWireLoad(trace, wopts);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  server->Drain();
  PrintNetStats(server->Stats());

  // Wire-side ledger: every batch the drivers sent must be accounted
  // for by a status reply or an observed transport loss.
  if (!LedgerBalanced("WIRE", wire)) return 1;
  if (wire.wire_errors > 0) {
    std::fprintf(stderr,
                 "clic_serve: wire drivers received %llu typed error "
                 "frame%s\n",
                 static_cast<unsigned long long>(wire.wire_errors),
                 wire.wire_errors == 1 ? "" : "s");
  }

  *result = server->cache().Snapshot();
  // Wall clock and latency percentiles are the wire-level numbers: what
  // a client sees through real sockets, not the in-process view.
  result->timing = wire.timing;
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions opts = Parse(argc, argv);
  if (opts.has_fault_plan) opts.server.fault = &opts.fault_plan;

  const std::string dir =
      opts.cache_dir.empty() ? sweep::CacheDirFromEnv() : opts.cache_dir;
  const std::uint64_t cap =
      opts.requests > 0 ? opts.requests : sweep::RequestCapFromEnv();
  sweep::TraceCache cache(dir, cap);
  // The cache caps every token but an a+b interleave, which is as long
  // as its capped parts together. The server replays at most `cap`
  // requests of any token, so it truncates here, once.
  const Trace& cached = cache.Get(opts.trace);
  Trace truncated;
  if (cached.size() > cap) {
    truncated = {cached.name, cached.hints,
                 {cached.requests.begin(),
                  cached.requests.begin() + static_cast<std::ptrdiff_t>(cap)},
                 cached.client_bound};
  }
  const Trace& trace = cached.size() > cap ? truncated : cached;
  if (opts.load.batch_size > trace.size()) {
    Die("--batch=" + std::to_string(opts.load.batch_size) +
        " exceeds the request budget of " + std::to_string(trace.size()) +
        " (a batch larger than the whole run is a typo, not a workload)");
  }

  // Hint-sanity guard: every id the trace legitimately uses is below
  // the registry size, so anything >= is corruption and gets
  // quarantined into the reserved untrusted bucket.
  opts.server.hint_bound =
      static_cast<std::uint32_t>(trace.hints ? trace.hints->size() : 0);

  // Standalone wire server: the workload only parameterizes the cache
  // (policy, shards, hint bound); remote clients supply the traffic.
  if (opts.listen) return RunListen(opts);

  cli::OutputFile out(kProg, opts.output);

  std::fprintf(stderr,
               "clic_serve: %s via %s, %zu shards x %zu pages, %zu clients, "
               "batch %zu, %s\n",
               opts.trace.c_str(), PolicyName(opts.server.policy),
               opts.server.shards,
               ShardCachePages(opts.server.cache_pages, opts.server.shards),
               opts.load.clients,
               opts.load.batch_size,
               opts.server.deterministic ? "deterministic" : "concurrent");

  ServeResult result;
  if (opts.connect) {
    if (RunWireServe(opts, trace, &result) != 0) return 1;
  } else {
    try {
      result = ServeTrace(trace, opts.server, opts.load);
    } catch (const std::invalid_argument& e) {
      Die(e.what());
    }
  }

  // The admission ledger must balance exactly on every run, fault plan
  // or not.
  if (!LedgerBalanced("ADMISSION", result.admission)) return 1;

  int exit_code = 0;
  if (opts.verify) {
    // With a shedding fault plan, the deterministic baseline is the
    // trace minus the deterministically shed batches; non-shed requests
    // must still produce bit-identical decisions.
    exit_code = Verify(
        result,
        PartitionedSimulate(
            FilterShedBatches(trace, opts.load, opts.server.fault),
            opts.server));
  }

  const sweep::Row row = SummaryRow(opts, result);
  if (opts.format == "csv") {
    std::fprintf(out.get(), "%s\n%s\n", row.CsvHeader().c_str(),
                 row.Csv().c_str());
  } else {
    std::fprintf(out.get(), "%s\n", row.Json().c_str());
  }
  if (!out.Close()) return 1;
  std::fprintf(stderr,
               "clic_serve: %llu requests in %.3fs (%.0f req/s over %u "
               "consumer%s, %.0f req/s/core), p50 %.1fus p99 %.1fus, avg "
               "drained batch %.1f\n",
               static_cast<unsigned long long>(result.requests),
               result.timing.wall_seconds, result.timing.throughput_rps,
               result.consumers, result.consumers == 1 ? "" : "s",
               result.timing.throughput_rps /
                   static_cast<double>(std::max(1u, result.consumers)),
               result.timing.p50_us, result.timing.p99_us,
               result.avg_drained_batch);
  if (result.admission.shed_requests + result.admission.expired_requests +
          result.quarantined >
      0) {
    std::fprintf(
        stderr,
        "clic_serve: degraded-mode counters: shed %llu, expired %llu "
        "requests; quarantined hints %llu; watchdog sheds %llu batches\n",
        static_cast<unsigned long long>(result.admission.shed_requests),
        static_cast<unsigned long long>(result.admission.expired_requests),
        static_cast<unsigned long long>(result.quarantined),
        static_cast<unsigned long long>(result.watchdog_sheds));
  }
  return exit_code;
}

}  // namespace
}  // namespace clic::server

int main(int argc, char** argv) { return clic::server::Main(argc, argv); }
