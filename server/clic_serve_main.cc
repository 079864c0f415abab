// clic_serve: drive the sharded online cache server with closed-loop
// clients replaying a named trace, and report throughput, batch latency
// percentiles, and hit statistics.
//
//   clic_serve --trace=DB2_C60 --policy=CLIC --shards=4 --clients=8
//              --cache-pages=12000 --requests=200000 --format=json
//   clic_serve --trace=DB2_C60 --policy=LRU --shards=2 --clients=2
//              --deterministic --verify
//
// --deterministic drives the clients one after another, so hit counts
// are bit-identical to per-shard sequential Simulate() of the
// partitioned trace at any consumer count; --verify checks exactly that
// in-process and fails loudly on any divergence.
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
#include "server/serve_cli.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"
#include "workload/scenario.h"
#include "workload/trace_factory.h"

namespace clic::server {
namespace {

constexpr char kProg[] = "clic_serve";

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

/// The summary's one field list: the CSV header and row, and the JSON
/// object, which adds per_consumer_requests and per_shard.
sweep::Row SummaryRow(const ServeCommand& opts, const ServeResult& r) {
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

/// The server's ledger check, run in every mode: its admission ledger
/// balances, and, since a batch is applied whole or not at all, the
/// requests the shards applied are exactly the ledger's applied ones.
/// Prints both counts when they differ.
bool ServerLedgerExact(const ServeResult& r) {
  if (!LedgerBalanced("ADMISSION", r.admission)) return false;
  if (r.requests == r.admission.applied_requests) return true;
  std::fprintf(stderr,
               "clic_serve: APPLIED MISMATCH: the shards applied %llu "
               "requests, the ledger counts %llu applied\n",
               static_cast<unsigned long long>(r.requests),
               static_cast<unsigned long long>(r.admission.applied_requests));
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
      "%llu frames drained to stopped, %llu replies an io thread blocked "
      "on\n",
      static_cast<unsigned long long>(n.accepted),
      static_cast<unsigned long long>(n.accept_shed),
      static_cast<unsigned long long>(n.frames),
      static_cast<unsigned long long>(n.frame_requests),
      static_cast<unsigned long long>(n.reply_writes),
      static_cast<unsigned long long>(n.rejected_frames),
      static_cast<unsigned long long>(n.rejected_requests),
      static_cast<unsigned long long>(n.evicted_read),
      static_cast<unsigned long long>(n.drained_frames),
      static_cast<unsigned long long>(n.blocked_retires));
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

/// The wire server of a --listen or --connect command, started; dies
/// when it cannot start.
std::unique_ptr<net::NetServer> StartNetServer(const ServeCommand& opts) {
  const net::NetServerOptions nopts = NetServerOptionsFor(opts);
  std::unique_ptr<net::NetServer> server;
  try {
    server = std::make_unique<net::NetServer>(nopts);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  std::fprintf(stderr,
               "clic_serve: %s on %s:%u (%u io thread%s, conn limit %zu)%s\n",
               opts.listen ? "listening" : "loopback wire serving",
               nopts.listen_addr.c_str(), server->port(), nopts.io_threads,
               nopts.io_threads == 1 ? "" : "s", nopts.conn_limit,
               opts.listen ? "; SIGTERM/SIGINT drains" : "");
  return server;
}

/// Standalone wire server (--listen): serve until SIGTERM/SIGINT, then
/// drain gracefully and report the wire + admission ledgers.
int RunListen(const ServeCommand& opts) {
  const std::unique_ptr<net::NetServer> server = StartNetServer(opts);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "clic_serve: draining\n");
  server->Drain();
  PrintNetStats(server->Stats());
  const ServeResult result = server->cache().Snapshot();
  if (!ServerLedgerExact(result)) return 1;
  std::fprintf(stderr,
               "clic_serve: drained cleanly; %llu requests applied\n",
               static_cast<unsigned long long>(result.requests));
  return 0;
}

/// Loopback wire serving (--connect): in-process NetServer on an
/// ephemeral port, ServeTrace-chunked wire drivers through real
/// sockets. Fills *result with the server-side view (wire latencies for
/// p50/p99); returns non-zero if the wire ledger does not balance.
int RunWireServe(const ServeCommand& opts, const Trace& trace,
                 ServeResult* result) {
  const std::unique_ptr<net::NetServer> server = StartNetServer(opts);
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
  cli::Parsed<ServeCommand> parsed =
      ParseServeCommand({argv + 1, argv + argc});
  if (parsed.action == cli::Action::kReject) Die(parsed.text);
  if (parsed.action == cli::Action::kList) PrintList();
  if (parsed.action != cli::Action::kRun) {
    std::fputs(parsed.text.c_str(), stdout);  // the help; empty for --list
    return 0;
  }
  ServeCommand& opts = parsed.options;
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
                  cached.requests.begin() + static_cast<std::ptrdiff_t>(cap)}};
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
  // or not, and agree with the shards.
  if (!ServerLedgerExact(result)) return 1;

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
        "requests; quarantined hints %llu\n",
        static_cast<unsigned long long>(result.admission.shed_requests),
        static_cast<unsigned long long>(result.admission.expired_requests),
        static_cast<unsigned long long>(result.quarantined));
  }
  return exit_code;
}

}  // namespace
}  // namespace clic::server

int main(int argc, char** argv) { return clic::server::Main(argc, argv); }
