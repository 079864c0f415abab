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
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
      "  --duration=SEC     run clients for SEC seconds instead of one\n"
      "                     pass (incompatible with --deterministic)\n"
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
      "  --clients=C        closed-loop client threads (default 4)\n"
      "  --batch=B          requests per submitted batch (default 64)\n"
      "  --consumers=K      owning-consumer (core) threads; each consumer\n"
      "                     owns a disjoint set of shards. 0 = auto\n"
      "                     (min(shards, hardware cores)). Must be\n"
      "                     <= shards; forced to 1 by --deterministic\n"
      "  --owned-shards=A   stripe | block: how shards map to owning\n"
      "                     consumers (default stripe)\n"
      "  --ring-capacity=N  per-(client,consumer) SPSC ring capacity in\n"
      "                     batches; a power of two >= 2 (default 256)\n"
      "  --deterministic    single consumer, strict client order: hit\n"
      "                     counts match per-shard sequential Simulate()\n"
      "  --verify           with --deterministic: check that equivalence\n"
      "                     in-process, exit 1 on any mismatch (with a\n"
      "                     shedding fault plan, the baseline excludes\n"
      "                     the deterministically shed batches)\n"
      "\n"
      "Overload resilience (all off by default):\n"
      "  --queue-cap=N      max pending batches per client queue\n"
      "  --admission=P      block | deadline | shed: producer behaviour\n"
      "                     at a full queue (deadline needs\n"
      "                     --submit-timeout-ms)\n"
      "  --submit-timeout-ms=F  wait bound for --admission=deadline\n"
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
      "  --window=W --decay=R --outqueue=N --no-charge-metadata\n"
      "  --tracker=exact|space_saving|lossy_counting --top-k=K\n"
      "  --adaptive-window --churn-threshold=S (in [0, 1])\n"
      "  --min-window=N --max-window=N  effective-window bounds\n"
      "                     (defaults: window/16 and window; see\n"
      "                     DESIGN.md \"Adaptive windowing\")\n"
      "\n"
      "Output:\n"
      "  --format=csv|json  summary row (csv) or full object (json)\n"
      "  --output=FILE      default: stdout\n"
      "  --list             print known traces and policies, then exit\n"
      "  --help             this text\n");
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
    if (arg == "--no-charge-metadata") {
      opts.server.clic.charge_metadata = false;
      continue;
    }
    if (arg == "--adaptive-window") {
      opts.server.clic.adaptive_window = true;
      continue;
    }
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
    } else if (key == "--owned-shards") {
      const std::optional<ShardAssignment> assignment =
          ParseShardAssignment(value);
      if (!assignment) {
        Die("unknown --owned-shards='" + value +
            "' (valid: stripe, block)");
      }
      opts.server.assignment = *assignment;
    } else if (key == "--ring-capacity") {
      const std::uint64_t capacity = cli::ParseU64(kProg, key, value);
      if (capacity < 2 || (capacity & (capacity - 1)) != 0) {
        Die("--ring-capacity='" + value +
            "' must be a power of two >= 2 (the ring masks instead of "
            "dividing)");
      }
      opts.server.ring_capacity = static_cast<std::size_t>(capacity);
    } else if (key == "--clients") {
      const std::uint64_t clients = cli::ParseU64(kProg, key, value);
      if (clients > 4096) Die(key + "='" + value + "' is unreasonably large");
      opts.load.clients = static_cast<std::size_t>(clients);
    } else if (key == "--batch") {
      opts.load.batch_size =
          static_cast<std::size_t>(cli::ParseU64(kProg, key, value));
    } else if (key == "--requests") {
      opts.requests = cli::ParseU64(kProg, key, value);
    } else if (key == "--queue-cap") {
      opts.server.queue_cap =
          static_cast<std::size_t>(cli::ParseU64(kProg, key, value));
    } else if (key == "--admission") {
      const std::optional<AdmissionPolicy> policy =
          ParseAdmissionPolicy(value);
      if (!policy) {
        Die("unknown --admission='" + value +
            "' (valid: block, deadline, shed)");
      }
      opts.server.admission = *policy;
    } else if (key == "--submit-timeout-ms") {
      opts.server.submit_timeout_ms = cli::ParseDouble(kProg, key, value);
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
    } else if (key == "--duration") {
      opts.load.duration_seconds = cli::ParseDouble(kProg, key, value);
    } else if (key == "--cache-dir") {
      opts.cache_dir = value;
    } else if (key == "--window") {
      opts.server.clic.window = cli::ParseU64(kProg, key, value);
    } else if (key == "--churn-threshold") {
      opts.server.clic.churn_threshold = cli::ParseDouble(kProg, key, value);
    } else if (key == "--min-window") {
      opts.server.clic.min_window = cli::ParseU64(kProg, key, value);
    } else if (key == "--max-window") {
      opts.server.clic.max_window = cli::ParseU64(kProg, key, value);
    } else if (key == "--decay") {
      opts.server.clic.decay = cli::ParseDouble(kProg, key, value);
    } else if (key == "--outqueue") {
      opts.server.clic.outqueue_per_page = cli::ParseDouble(kProg, key, value);
    } else if (key == "--top-k") {
      opts.server.clic.top_k =
          static_cast<std::size_t>(cli::ParseU64(kProg, key, value));
    } else if (key == "--tracker") {
      if (value == "exact") {
        opts.server.clic.tracker = TrackerKind::kExact;
      } else if (value == "space_saving") {
        opts.server.clic.tracker = TrackerKind::kSpaceSaving;
      } else if (value == "lossy_counting") {
        opts.server.clic.tracker = TrackerKind::kLossyCounting;
      } else {
        Die("unknown --tracker='" + value +
            "' (valid: exact, space_saving, lossy_counting)");
      }
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
  cli::RequireValidAdaptiveWindow(kProg, opts.server.clic);
  if (opts.verify && !opts.server.deterministic) {
    Die("--verify requires --deterministic (concurrent interleaving is "
        "timing-dependent by design)");
  }
  if (opts.server.deterministic && opts.load.duration_seconds > 0.0) {
    Die("--deterministic and --duration are incompatible: duration mode "
        "replays in wall-clock order");
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
  if (opts.server.queue_cap > 0 &&
      opts.server.admission == AdmissionPolicy::kBlockWithDeadline &&
      opts.server.submit_timeout_ms <= 0.0) {
    Die("--admission=deadline requires --submit-timeout-ms > 0 (got " +
        std::to_string(opts.server.submit_timeout_ms) + ")");
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
  if (opts.connect && opts.load.duration_seconds > 0.0) {
    Die("--connect replays one pass over the wire; --duration is not "
        "supported in loopback mode");
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
    if (opts.server.queue_cap > 0 &&
        opts.server.admission != AdmissionPolicy::kBlock) {
      Die("--verify needs --admission=block (shed/deadline admission "
          "makes the served set timing-dependent)");
    }
  }
  return opts;
}

using sweep::AppendDouble;

SimResult AsSimResult(const ServeResult& result) {
  SimResult sim;
  sim.total = result.total;
  sim.per_client = result.per_client;
  return sim;
}

std::string CsvSummaryHeader() {
  return "trace,policy,shards,clients,cache_pages,pages_per_shard,batch,"
         "deterministic,admission,queue_cap,requests,batches,shard_drains,"
         "avg_drained_batch,reads,writes,read_hits,write_hits,"
         "read_hit_ratio,write_hit_ratio,submitted_requests,shed_requests,"
         "timed_out_requests,expired_requests,quarantined,watchdog_sheds,"
         "wall_seconds,throughput_rps,consumers,cores_detected,per_core_rps,"
         "p50_us,p99_us,per_client";
}

std::string CsvSummaryRow(const CliOptions& opts, const ServeResult& r,
                          std::size_t pages_per_shard) {
  std::string out;
  out.append(sweep::CsvField(opts.trace));
  out.push_back(',');
  out.append(sweep::CsvField(PolicyName(opts.server.policy)));
  out.push_back(',');
  out.append(std::to_string(opts.server.shards));
  out.push_back(',');
  out.append(std::to_string(opts.load.clients));
  out.push_back(',');
  out.append(std::to_string(opts.server.cache_pages));
  out.push_back(',');
  out.append(std::to_string(pages_per_shard));
  out.push_back(',');
  out.append(std::to_string(opts.load.batch_size));
  out.push_back(',');
  out.append(opts.server.deterministic ? "1" : "0");
  out.push_back(',');
  out.append(AdmissionPolicyName(opts.server.admission));
  out.push_back(',');
  out.append(std::to_string(opts.server.queue_cap));
  out.push_back(',');
  out.append(std::to_string(r.requests));
  out.push_back(',');
  out.append(std::to_string(r.batches));
  out.push_back(',');
  out.append(std::to_string(r.shard_drains));
  out.push_back(',');
  AppendDouble(&out, r.avg_drained_batch);
  out.push_back(',');
  out.append(std::to_string(r.total.reads));
  out.push_back(',');
  out.append(std::to_string(r.total.writes));
  out.push_back(',');
  out.append(std::to_string(r.total.read_hits));
  out.push_back(',');
  out.append(std::to_string(r.total.write_hits));
  out.push_back(',');
  AppendDouble(&out, r.total.ReadHitRatio());
  out.push_back(',');
  AppendDouble(&out, r.total.WriteHitRatio());
  out.push_back(',');
  out.append(std::to_string(r.admission.submitted_requests));
  out.push_back(',');
  out.append(std::to_string(r.admission.shed_requests));
  out.push_back(',');
  out.append(std::to_string(r.admission.timed_out_requests));
  out.push_back(',');
  out.append(std::to_string(r.admission.expired_requests));
  out.push_back(',');
  out.append(std::to_string(r.quarantined));
  out.push_back(',');
  out.append(std::to_string(r.watchdog_sheds));
  out.push_back(',');
  AppendDouble(&out, r.wall_seconds);
  out.push_back(',');
  AppendDouble(&out, r.throughput_rps);
  out.push_back(',');
  out.append(std::to_string(r.consumers));
  out.push_back(',');
  out.append(std::to_string(r.cores_detected));
  out.push_back(',');
  AppendDouble(&out, r.throughput_rps /
                         static_cast<double>(std::max(1u, r.consumers)));
  out.push_back(',');
  AppendDouble(&out, r.p50_us);
  out.push_back(',');
  AppendDouble(&out, r.p99_us);
  out.push_back(',');
  out.append(sweep::CsvField(sweep::PerClientColumn(AsSimResult(r))));
  return out;
}

std::string JsonSummary(const CliOptions& opts, const ServeResult& r,
                        std::size_t pages_per_shard) {
  std::string out = "{\"trace\":\"";
  out.append(sweep::JsonEscaped(opts.trace));
  out.append("\",\"policy\":\"");
  out.append(sweep::JsonEscaped(PolicyName(opts.server.policy)));
  out.append("\",\"shards\":");
  out.append(std::to_string(opts.server.shards));
  out.append(",\"clients\":");
  out.append(std::to_string(opts.load.clients));
  out.append(",\"cache_pages\":");
  out.append(std::to_string(opts.server.cache_pages));
  out.append(",\"pages_per_shard\":");
  out.append(std::to_string(pages_per_shard));
  out.append(",\"batch\":");
  out.append(std::to_string(opts.load.batch_size));
  out.append(",\"deterministic\":");
  out.append(opts.server.deterministic ? "true" : "false");
  out.append(",\"admission\":\"");
  out.append(AdmissionPolicyName(opts.server.admission));
  out.append("\",\"queue_cap\":");
  out.append(std::to_string(opts.server.queue_cap));
  out.append(",\"submitted_requests\":");
  out.append(std::to_string(r.admission.submitted_requests));
  out.append(",\"shed_requests\":");
  out.append(std::to_string(r.admission.shed_requests));
  out.append(",\"timed_out_requests\":");
  out.append(std::to_string(r.admission.timed_out_requests));
  out.append(",\"expired_requests\":");
  out.append(std::to_string(r.admission.expired_requests));
  out.append(",\"quarantined\":");
  out.append(std::to_string(r.quarantined));
  out.append(",\"watchdog_sheds\":");
  out.append(std::to_string(r.watchdog_sheds));
  out.append(",\"requests\":");
  out.append(std::to_string(r.requests));
  out.append(",\"batches\":");
  out.append(std::to_string(r.batches));
  out.append(",\"shard_drains\":");
  out.append(std::to_string(r.shard_drains));
  out.append(",\"avg_drained_batch\":");
  AppendDouble(&out, r.avg_drained_batch);
  out.append(",\"reads\":");
  out.append(std::to_string(r.total.reads));
  out.append(",\"writes\":");
  out.append(std::to_string(r.total.writes));
  out.append(",\"read_hits\":");
  out.append(std::to_string(r.total.read_hits));
  out.append(",\"write_hits\":");
  out.append(std::to_string(r.total.write_hits));
  out.append(",\"read_hit_ratio\":");
  AppendDouble(&out, r.total.ReadHitRatio());
  out.append(",\"write_hit_ratio\":");
  AppendDouble(&out, r.total.WriteHitRatio());
  out.append(",\"wall_seconds\":");
  AppendDouble(&out, r.wall_seconds);
  out.append(",\"throughput_rps\":");
  AppendDouble(&out, r.throughput_rps);
  out.append(",\"consumers\":");
  out.append(std::to_string(r.consumers));
  out.append(",\"cores_detected\":");
  out.append(std::to_string(r.cores_detected));
  out.append(",\"per_core_rps\":");
  AppendDouble(&out, r.throughput_rps /
                         static_cast<double>(std::max(1u, r.consumers)));
  out.append(",\"per_consumer_requests\":[");
  for (std::size_t k = 0; k < r.per_consumer_requests.size(); ++k) {
    if (k > 0) out.push_back(',');
    out.append(std::to_string(r.per_consumer_requests[k]));
  }
  out.append("]");
  out.append(",\"p50_us\":");
  AppendDouble(&out, r.p50_us);
  out.append(",\"p99_us\":");
  AppendDouble(&out, r.p99_us);
  out.append(",\"per_shard\":[");
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    if (s > 0) out.push_back(',');
    const CacheStats& stats = r.per_shard[s];
    out.append("{\"reads\":");
    out.append(std::to_string(stats.reads));
    out.append(",\"writes\":");
    out.append(std::to_string(stats.writes));
    out.append(",\"read_hits\":");
    out.append(std::to_string(stats.read_hits));
    out.append(",\"write_hits\":");
    out.append(std::to_string(stats.write_hits));
    out.append("}");
  }
  out.append("],\"per_client\":{");
  bool first = true;
  for (const auto& [client, stats] : r.per_client) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(std::to_string(client));
    out.append("\":{\"reads\":");
    out.append(std::to_string(stats.reads));
    out.append(",\"read_hits\":");
    out.append(std::to_string(stats.read_hits));
    out.append(",\"writes\":");
    out.append(std::to_string(stats.writes));
    out.append(",\"write_hits\":");
    out.append(std::to_string(stats.write_hits));
    out.append("}");
  }
  out.append("}}");
  return out;
}

bool SameStats(const CacheStats& a, const CacheStats& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.read_hits == b.read_hits && a.write_hits == b.write_hits;
}

void PrintStatsPair(const std::string& what, const CacheStats& served,
                    const CacheStats& expected) {
  auto line = [&what](const char* tag, const CacheStats& s) {
    std::fprintf(stderr,
                 "clic_serve:   %s %s reads=%llu writes=%llu read_hits=%llu "
                 "write_hits=%llu\n",
                 what.c_str(), tag, static_cast<unsigned long long>(s.reads),
                 static_cast<unsigned long long>(s.writes),
                 static_cast<unsigned long long>(s.read_hits),
                 static_cast<unsigned long long>(s.write_hits));
  };
  line("served  ", served);
  line("expected", expected);
}

int Verify(const ServeResult& served, const SimResult& expected) {
  bool ok = true;
  if (!SameStats(served.total, expected.total)) {
    ok = false;
    std::fprintf(stderr,
                 "clic_serve: VERIFY FAILED — aggregate counts diverged from "
                 "per-shard sequential Simulate():\n");
    PrintStatsPair("total", served.total, expected.total);
  }
  // Name the exact client (or field) that diverged: an aggregate match
  // with a per-client mismatch is the subtle failure mode this check
  // exists to expose.
  for (const auto& [client, stats] : expected.per_client) {
    const auto it = served.per_client.find(client);
    if (it == served.per_client.end()) {
      ok = false;
      std::fprintf(stderr,
                   "clic_serve: VERIFY FAILED — client %u missing from "
                   "served per-client stats\n",
                   static_cast<unsigned>(client));
    } else if (!SameStats(stats, it->second)) {
      ok = false;
      std::fprintf(stderr,
                   "clic_serve: VERIFY FAILED — client %u counts diverged:\n",
                   static_cast<unsigned>(client));
      PrintStatsPair("client", it->second, stats);
    }
  }
  for (const auto& [client, stats] : served.per_client) {
    if (expected.per_client.find(client) == expected.per_client.end()) {
      ok = false;
      std::fprintf(stderr,
                   "clic_serve: VERIFY FAILED — served stats contain "
                   "unexpected client %u (%llu requests)\n",
                   static_cast<unsigned>(client),
                   static_cast<unsigned long long>(stats.reads + stats.writes));
    }
  }
  if (!ok) return 1;
  std::fprintf(stderr,
               "clic_serve: verify OK — aggregate and per-client hit counts "
               "bit-identical to per-shard sequential Simulate()\n");
  return 0;
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

void PrintNetStats(const net::NetStats& n) {
  std::fprintf(
      stderr,
      "clic_serve: wire: %llu conns accepted (%llu shed), %llu frames / "
      "%llu requests in %llu reply writes, %llu rejected frames (%llu "
      "requests), evicted %llu slow readers + %llu slow writers, %llu "
      "frames drained to stopped\n",
      static_cast<unsigned long long>(n.accepted),
      static_cast<unsigned long long>(n.accept_shed),
      static_cast<unsigned long long>(n.frames),
      static_cast<unsigned long long>(n.frame_requests),
      static_cast<unsigned long long>(n.reply_writes),
      static_cast<unsigned long long>(n.rejected_frames),
      static_cast<unsigned long long>(n.rejected_requests),
      static_cast<unsigned long long>(n.evicted_read),
      static_cast<unsigned long long>(n.evicted_write),
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
  if (adm.submitted_requests !=
      adm.applied_requests + adm.shed_requests + adm.timed_out_requests +
          adm.expired_requests + adm.stopped_requests) {
    std::fprintf(stderr, "clic_serve: ADMISSION LEDGER BROKEN after drain\n");
    return 1;
  }
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
                 std::uint64_t cap, ServeResult* result) {
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
  wopts.request_budget = cap;
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
  if (wire.submitted_requests !=
          wire.applied_requests + wire.shed_requests +
              wire.timed_out_requests + wire.expired_requests +
              wire.stopped_requests + wire.conn_lost_requests ||
      wire.submitted_batches !=
          wire.applied_batches + wire.shed_batches + wire.timed_out_batches +
              wire.expired_batches + wire.stopped_batches +
              wire.conn_lost_batches) {
    std::fprintf(
        stderr,
        "clic_serve: WIRE LEDGER BROKEN: submitted=%llu/%llu != "
        "applied=%llu/%llu + shed=%llu/%llu + timed_out=%llu/%llu + "
        "expired=%llu/%llu + stopped=%llu/%llu + conn_lost=%llu/%llu "
        "(batches/requests)\n",
        static_cast<unsigned long long>(wire.submitted_batches),
        static_cast<unsigned long long>(wire.submitted_requests),
        static_cast<unsigned long long>(wire.applied_batches),
        static_cast<unsigned long long>(wire.applied_requests),
        static_cast<unsigned long long>(wire.shed_batches),
        static_cast<unsigned long long>(wire.shed_requests),
        static_cast<unsigned long long>(wire.timed_out_batches),
        static_cast<unsigned long long>(wire.timed_out_requests),
        static_cast<unsigned long long>(wire.expired_batches),
        static_cast<unsigned long long>(wire.expired_requests),
        static_cast<unsigned long long>(wire.stopped_batches),
        static_cast<unsigned long long>(wire.stopped_requests),
        static_cast<unsigned long long>(wire.conn_lost_batches),
        static_cast<unsigned long long>(wire.conn_lost_requests));
    return 1;
  }
  if (wire.wire_errors > 0) {
    std::fprintf(stderr,
                 "clic_serve: wire drivers received %llu typed error "
                 "frame%s\n",
                 static_cast<unsigned long long>(wire.wire_errors),
                 wire.wire_errors == 1 ? "" : "s");
  }

  *result = QuiescentServeResult(server->cache());
  // Wall clock and latency percentiles are the wire-level numbers: what
  // a client sees through real sockets, not the in-process view.
  result->wall_seconds = wire.wall_seconds;
  result->throughput_rps = wire.throughput_rps;
  result->p50_us = wire.p50_us;
  result->p99_us = wire.p99_us;
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
  const Trace& trace = cache.Get(opts.trace);

  const std::uint64_t effective =
      cap > 0 ? std::min<std::uint64_t>(trace.size(), cap) : trace.size();
  if (opts.load.batch_size > effective) {
    Die("--batch=" + std::to_string(opts.load.batch_size) +
        " exceeds the request budget of " + std::to_string(effective) +
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

  LoadOptions load = opts.load;
  load.request_budget = cap;

  std::FILE* out = stdout;
  if (!opts.output.empty()) {
    out = std::fopen(opts.output.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "clic_serve: cannot open '%s': %s\n",
                   opts.output.c_str(), std::strerror(errno));
      return 1;
    }
  }

  const std::size_t pages_per_shard =
      ShardCachePages(opts.server.cache_pages, opts.server.shards);
  std::fprintf(stderr,
               "clic_serve: %s via %s, %zu shards x %zu pages, %zu clients, "
               "batch %zu, %s\n",
               opts.trace.c_str(), PolicyName(opts.server.policy),
               opts.server.shards, pages_per_shard, opts.load.clients,
               opts.load.batch_size,
               opts.server.deterministic ? "deterministic" : "concurrent");

  ServeResult result;
  if (opts.connect) {
    if (RunWireServe(opts, trace, cap, &result) != 0) return 1;
  } else {
    try {
      result = ServeTrace(trace, opts.server, load);
    } catch (const std::invalid_argument& e) {
      Die(e.what());
    }
  }

  // The admission ledger must balance exactly on every run, fault plan
  // or not: a request the server neither applied nor accounted for as
  // rejected is a lost write from the client's point of view.
  const AdmissionStats& adm = result.admission;
  if (adm.submitted_requests !=
          adm.applied_requests + adm.shed_requests + adm.timed_out_requests +
              adm.expired_requests + adm.stopped_requests ||
      adm.submitted_batches !=
          adm.applied_batches + adm.shed_batches + adm.timed_out_batches +
              adm.expired_batches + adm.stopped_batches) {
    std::fprintf(
        stderr,
        "clic_serve: ADMISSION LEDGER BROKEN: submitted=%llu/%llu != "
        "applied=%llu/%llu + shed=%llu/%llu + timed_out=%llu/%llu + "
        "expired=%llu/%llu + stopped=%llu/%llu (batches/requests)\n",
        static_cast<unsigned long long>(adm.submitted_batches),
        static_cast<unsigned long long>(adm.submitted_requests),
        static_cast<unsigned long long>(adm.applied_batches),
        static_cast<unsigned long long>(adm.applied_requests),
        static_cast<unsigned long long>(adm.shed_batches),
        static_cast<unsigned long long>(adm.shed_requests),
        static_cast<unsigned long long>(adm.timed_out_batches),
        static_cast<unsigned long long>(adm.timed_out_requests),
        static_cast<unsigned long long>(adm.expired_batches),
        static_cast<unsigned long long>(adm.expired_requests),
        static_cast<unsigned long long>(adm.stopped_batches),
        static_cast<unsigned long long>(adm.stopped_requests));
    return 1;
  }

  int exit_code = 0;
  if (opts.verify) {
    // With a shedding fault plan, the deterministic baseline is the
    // capped trace minus the deterministically shed batches; non-shed
    // requests must still produce bit-identical decisions.
    if (opts.server.fault != nullptr &&
        opts.server.fault->shed_every > 0) {
      const Trace filtered =
          FilterShedBatches(trace, load, opts.server.fault, cap);
      exit_code = Verify(result, PartitionedSimulate(filtered, opts.server));
    } else {
      exit_code = Verify(result, PartitionedSimulate(trace, opts.server, cap));
    }
  }

  if (opts.format == "csv") {
    std::fprintf(out, "%s\n%s\n", CsvSummaryHeader().c_str(),
                 CsvSummaryRow(opts, result, pages_per_shard).c_str());
  } else {
    std::fprintf(out, "%s\n",
                 JsonSummary(opts, result, pages_per_shard).c_str());
  }
  bool write_ok = std::ferror(out) == 0;
  if (out != stdout) {
    write_ok = std::fclose(out) == 0 && write_ok;
  } else {
    write_ok = std::fflush(out) == 0 && write_ok;
  }
  if (!write_ok) {
    std::fprintf(stderr, "clic_serve: error writing %s: %s\n",
                 opts.output.empty() ? "stdout" : opts.output.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(stderr,
               "clic_serve: %llu requests in %.3fs (%.0f req/s over %u "
               "consumer%s, %.0f req/s/core), p50 %.1fus p99 %.1fus, avg "
               "drained batch %.1f\n",
               static_cast<unsigned long long>(result.requests),
               result.wall_seconds, result.throughput_rps, result.consumers,
               result.consumers == 1 ? "" : "s",
               result.throughput_rps /
                   static_cast<double>(std::max(1u, result.consumers)),
               result.p50_us, result.p99_us, result.avg_drained_batch);
  if (result.admission.shed_requests + result.admission.timed_out_requests +
          result.admission.expired_requests + result.quarantined >
      0) {
    std::fprintf(
        stderr,
        "clic_serve: degraded-mode counters: shed %llu, timed out %llu, "
        "expired %llu requests; quarantined hints %llu; watchdog sheds "
        "%llu batches\n",
        static_cast<unsigned long long>(result.admission.shed_requests),
        static_cast<unsigned long long>(result.admission.timed_out_requests),
        static_cast<unsigned long long>(result.admission.expired_requests),
        static_cast<unsigned long long>(result.quarantined),
        static_cast<unsigned long long>(result.watchdog_sheds));
  }
  return exit_code;
}

}  // namespace
}  // namespace clic::server

int main(int argc, char** argv) { return clic::server::Main(argc, argv); }
