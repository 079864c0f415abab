// clic_bench: the CLIC serving benchmark. One process runs one
// workload (benchmark/run.sh starts one per workload, so peak RSS is
// per workload):
//
//   clic_bench --workload=NAME [--seed=N] [--seconds=S] [--trace]
//              [--smoke] [--out=FILE] [--spans=FILE]
//
// The seed is substituted into the workload's scenario spec, so the
// program under test only ever sees generated inputs. An untraced run
// measures the end-to-end metrics; a traced run (--trace) prices every
// layer on the same trace and batch size instead (ladder.cc). Both run
// the correctness gates. Metric lines go to stdout as
// "<workload> <metric> <value> <unit>", followed by one JSON line
// {"correct", "attempted", "failed", "metrics"}; any failed gate is
// printed to stderr and makes the exit code 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cli_util.h"
#include "server/cache_server.h"
#include "server/net/wire_client.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"
#include "sweep/trace_cache.h"
#include "wire_load.h"

namespace clic_bench {

using clic::CacheStats;
using clic::PolicyKind;
using clic::Trace;
using clic::server::net::NetServer;
using clic::server::net::NetServerOptions;
using clic::server::net::NetStats;
using clic::server::net::RunWireLoad;
using clic::server::net::WireLoadOptions;
using clic::server::net::WireLoadResult;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> table = {
      // The whole serving path. The working set (120k pages) dwarfs the
      // 12k-page cache, so eviction and victim search run on every miss.
      {"wire-zipf", "zipf:pages=120000,theta=0.9,buffer=2000,n=600000",
       true, false, 64, 1.2e6, 0.38476789231351166},
      // The working set fits in the cache: per-frame costs (syscalls,
      // parsing, Submit hand-off, consumer wake-ups) dominate and the
      // policy does almost no work.
      {"wire-fit-small", "zipf:pages=10000,theta=0.9,buffer=500,n=600000",
       true, false, 8, 0.24e6, 0.98122351341861613},
      // The per-access policy path with no server or net: four clients
      // with their own hint sets, a quarter of the requests writes.
      {"replay-tenants",
       "tenants:pages=160000,tenants=4,theta=0.95,buffer=1500,write=0.3,"
       "n=800000",
       false, false, 0, 0.0, 0.3121602679113325},
      // The same policy layer used differently: window close, early
      // close and eager re-fold dominate.
      {"replay-phase-adaptive",
       "phase:pages=120000,hot-pages=15000,phase-len=150000,buffer=2000,"
       "n=800000",
       false, true, 0, 0.0, 0.57358961379693862},
  };
  return table;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

clic::ClicOptions ClicOptionsFor(const Workload& w) {
  clic::ClicOptions options;  // the paper's options
  options.adaptive_window = w.adaptive;
  return options;
}

NetServerOptions ServingOptions(const Workload& w, bool deterministic) {
  NetServerOptions o;
  o.io_threads = kIoThreads;
  o.conn_limit = kConnections;
  o.server.shards = kShards;
  o.server.cache_pages = kCachePages;
  o.server.policy = PolicyKind::kClic;
  o.server.clic = ClicOptionsFor(w);
  o.server.deterministic = deterministic;
  o.server.consumers = deterministic ? 1 : kConsumers;
  return o;
}

namespace {

constexpr const char* kProg = "clic_bench";
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 9;
/// Wire runs: rounds of one open-loop segment and one closed-loop
/// saturation segment, all of one length, so both metrics sample the
/// same stretches of time.
constexpr int kWireRounds = 16;
constexpr std::size_t kSpanCapacity = 2'000'000;
constexpr std::size_t kSpansWrittenPerName = 20'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string spans;
  /// Trace-cache scratch space, removed at exit: work-<pid> beside the
  /// executable, so it stays inside the (ignored) build directory.
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = clic::cli::ParseU64AllowZero(kProg, key, value);
    } else if (key == "--seconds") {
      a.seconds = clic::cli::ParseDouble(kProg, key, value);
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      clic::cli::Die(kProg, "unknown argument '" + arg + "'");
    }
  }
  std::string names;
  for (const Workload& w : Workloads()) names += std::string(" ") + w.name;
  if (FindWorkload(a.workload) == nullptr) {
    clic::cli::Die(kProg, "--workload='" + a.workload +
                              "' is not one of:" + names);
  }
  if (a.seconds <= 0.0) clic::cli::Die(kProg, "--seconds must be > 0");
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  a.work_dir = (ec ? std::filesystem::path(".") : exe.parent_path()) /
               ("work-" + std::to_string(::getpid()));
  return a;
}

bool SameStats(const CacheStats& a, const CacheStats& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.read_hits == b.read_hits && a.write_hits == b.write_hits;
}

std::string Describe(const CacheStats& s) {
  return std::to_string(s.read_hits) + "/" + std::to_string(s.reads) +
         " read hits, " + std::to_string(s.write_hits) + "/" +
         std::to_string(s.writes) + " write hits";
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Generated trace plus the system brought up on it. Each set-up uses a
/// fresh trace-cache directory, so the trace is really generated, and
/// replaces the previous one.
struct Setup {
  std::optional<clic::sweep::TraceCache> cache;
  const Trace* trace = nullptr;
  std::unique_ptr<NetServer> server;  // wire: the server the run times
  std::vector<double> setup_s;
  std::vector<double> trace_gen_s;
};

void SetUp(const Workload& w, const Args& a, Setup* s) {
  s->server.reset();
  s->cache.reset();
  const std::int64_t t0 = NowNs();
  s->cache.emplace(a.work_dir + "/cache-" + std::to_string(s->setup_s.size()),
                   /*request_cap=*/UINT64_MAX);
  s->trace = &s->cache->Get(std::string(w.spec) + ",seed=" +
                            std::to_string(a.seed));
  const std::int64_t t1 = NowNs();
  if (w.wire) {
    s->server = std::make_unique<NetServer>(ServingOptions(w, false));
  } else {
    clic::MakePolicy(PolicyKind::kClic, kCachePages, nullptr,
                     ClicOptionsFor(w));
  }
  const std::int64_t t2 = NowNs();
  s->trace_gen_s.push_back(Seconds(t1 - t0));
  s->setup_s.push_back(Seconds(t2 - t0));
}

/// Replay: Simulate passes over the whole trace, each from a cold
/// policy, until the time is up. Every pass must make the same
/// decisions. throughput_rps and p50_us (the pass's median AccessBatch
/// block) are the better quartile of the passes' values. Returns the
/// read hit ratio.
double RunReplay(const Workload& w, const Args& a, const Trace& trace,
                 Report* rep) {
  std::vector<double> rps, pass_p50;
  std::vector<double> block_us, pass_blocks;
  CacheStats first;
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (int pass = 0; pass < 3 || NowNs() < end; ++pass) {
    const auto policy = clic::MakePolicy(PolicyKind::kClic, kCachePages,
                                         nullptr, ClicOptionsFor(w));
    pass_blocks.clear();
    TimedPolicy timed(*policy, &pass_blocks, nullptr, -1);
    const std::int64_t t0 = NowNs();
    const clic::SimResult r = clic::Simulate(trace, timed);
    const std::int64_t t1 = NowNs();
    rps.push_back(static_cast<double>(trace.size()) / Seconds(t1 - t0));
    block_us.insert(block_us.end(), pass_blocks.begin(), pass_blocks.end());
    pass_p50.push_back(Quantile(&pass_blocks, 0.5));
    rep->attempted += trace.size();
    if (pass == 0) {
      first = r.total;
    } else if (!SameStats(first, r.total)) {
      rep->Fail("replay pass " + std::to_string(pass) + " gave " +
                Describe(r.total) + ", pass 0 gave " + Describe(first));
    }
  }
  rep->Add("read_hit_ratio", first.ReadHitRatio(), "ratio", first.reads);
  rep->Add("throughput_rps", BetterQuartile(rps, true), "req/s", rps.size());
  rep->Add("p50_us", BetterQuartile(pass_p50, false), "us", pass_p50.size());
  rep->Info("tail.p99_us", Quantile(&block_us, 0.99));
  return first.ReadHitRatio();
}

/// The wire correctness gate: the trace is served once over real
/// sockets by a deterministic server (one consumer, connections driven
/// one after another in client order, one frame in flight), and the
/// per-shard results must equal sequential Simulate of each shard's
/// part. Returns the read hit ratio.
double VerifyDeterministic(const Workload& w, const Trace& trace,
                           Report* rep) {
  const NetServerOptions options = ServingOptions(w, true);
  NetServer server(options);
  WireLoadOptions load;
  load.port = server.port();
  load.clients = kConnections;
  load.batch_size = w.batch;
  load.deterministic = true;
  const WireLoadResult r = RunWireLoad(trace, load);
  server.Drain();
  rep->attempted += r.submitted_requests;
  rep->failed += r.submitted_requests - r.applied_requests;
  if (r.applied_requests != trace.size() || r.conn_lost_batches != 0) {
    rep->Fail("verify: " + std::to_string(r.applied_requests) + " of " +
              std::to_string(trace.size()) + " requests applied, " +
              std::to_string(r.conn_lost_batches) + " batches lost");
  }

  const clic::SimResult expect =
      clic::server::PartitionedSimulate(trace, options.server);
  const CacheStats got = server.cache().TotalStats();
  if (!SameStats(got, expect.total)) {
    rep->Fail("verify: wire served " + Describe(got) +
              ", PartitionedSimulate " + Describe(expect.total));
  }
  const std::vector<Trace> parts =
      clic::server::PartitionByShard(trace, kShards);
  const std::vector<CacheStats> shards = server.cache().PerShardStats();
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto policy = clic::MakePolicy(
        PolicyKind::kClic, clic::server::ShardCachePages(kCachePages, kShards),
        nullptr, options.server.clic);
    const clic::SimResult part = clic::Simulate(parts[s], *policy);
    if (!SameStats(shards[s], part.total)) {
      rep->Fail("verify: shard " + std::to_string(s) + " served " +
                Describe(shards[s]) + ", Simulate " + Describe(part.total));
    }
  }
  return got.ReadHitRatio();
}

/// Wire: a warm-up, then rounds of one open-loop segment at the frozen
/// rate and one closed-loop saturation segment, all against the server
/// built in set-up, from one generator thread over two connections.
/// Each segment ends by collecting every outstanding reply, then checks
/// the ledger. p50_us and throughput_rps are the better quartile of the
/// segments' values.
void RunWire(const Workload& w, const Args& a, const Trace& trace,
             NetServer* server, Report* rep) {
  const std::size_t half = trace.size() / kConnections;
  WireConn c0(trace.requests.data(), half, w.batch);
  WireConn c1(trace.requests.data() + half, trace.size() - half, w.batch);
  std::string error;
  if (!c0.Connect(server->port(), &error) ||
      !c1.Connect(server->port(), &error)) {
    rep->Fail(error);
    return;
  }
  Tracer off;
  WireLoad load({&c0, &c1}, &off);
  NetStats base = server->Stats();
  std::uint64_t frames = 0;
  auto check = [&](const SegmentStats& st, const std::string& phase) {
    rep->attempted += st.requests;
    rep->failed += st.failed_requests;
    frames += st.frames;
    const NetStats now = server->Stats();
    if (!st.error.empty()) rep->Fail(phase + ": " + st.error);
    if (st.frames != st.replies + st.lost) {
      rep->Fail(phase + ": ledger " + std::to_string(st.frames) +
                " frames sent, " + std::to_string(st.replies) + " replies, " +
                std::to_string(st.lost) + " lost");
    }
    if (now.frames - base.frames != st.frames || now.rejected_frames != 0) {
      rep->Fail(phase + ": server parsed " +
                std::to_string(now.frames - base.frames) + " of " +
                std::to_string(st.frames) + " frames, rejected " +
                std::to_string(now.rejected_frames));
    }
    base = now;
  };

  const double warm = std::max(0.2, 0.05 * a.seconds);
  const double seg = (a.seconds - warm) / (2 * kWireRounds);
  check(load.ClosedLoop(kSatDepth, warm), "warm-up");
  std::vector<double> p50, p90, p99, p999, late99, rps;
  std::uint64_t samples = 0, over_1ms = 0;
  double backlog = 0.0;
  for (int i = 0; i < kWireRounds; ++i) {
    SegmentStats st = load.OpenLoop(w.rate_rps, w.batch, seg);
    check(st, "open-loop segment " + std::to_string(i));
    samples += st.latency_us.size();
    for (const double us : st.latency_us) over_1ms += us > 1000.0;
    p50.push_back(Quantile(&st.latency_us, 0.50));
    p90.push_back(Quantile(&st.latency_us, 0.90));
    p99.push_back(Quantile(&st.latency_us, 0.99));
    p999.push_back(Quantile(&st.latency_us, 0.999));
    late99.push_back(Quantile(&st.late_us, 0.99));
    backlog = std::max(backlog, static_cast<double>(st.backlog));

    st = load.ClosedLoop(kSatDepth, seg);
    check(st, "closed-loop segment " + std::to_string(i));
    rps.push_back(static_cast<double>(st.window_requests) / st.seconds);
  }
  c0.Close();
  c1.Close();
  server->Drain();
  const clic::server::AdmissionStats adm = server->cache().TotalAdmission();
  if (adm.submitted_batches != frames ||
      adm.applied_batches != adm.submitted_batches) {
    rep->Fail("server ledger: " + std::to_string(adm.submitted_batches) +
              " batches submitted, " + std::to_string(adm.applied_batches) +
              " applied, " + std::to_string(frames) + " frames sent");
  }
  rep->Add("throughput_rps", BetterQuartile(rps, true), "req/s", rps.size());
  rep->Add("p50_us", BetterQuartile(p50, false), "us", p50.size());
  // The tail is recorded but not bounded: stall windows of 1-60 ms hit
  // 0.5-4% of frames, so p90 and above move with the stall share from
  // run to run (benchmark/README.md, "Tail latency").
  rep->Info("tail.p90_us", Median(p90));
  rep->Info("tail.p99_us", Median(p99));
  rep->Info("tail.p999_us", Median(p999));
  rep->Info("tail.over_1ms_share",
            static_cast<double>(over_1ms) / static_cast<double>(samples));
  rep->Info("rate_rps", w.rate_rps);
  rep->Info("gen.late_us_p99", Median(late99));
  rep->Info("gen.backlog_frames", backlog);
  rep->Info("net.frames", static_cast<double>(frames));
  rep->Info("net.rejected_frames",
            static_cast<double>(server->Stats().rejected_frames));
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      out->push_back(' ');
      continue;
    }
    out->push_back(ch);
  }
  out->push_back('"');
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The metrics object: {"name": {"value": v, "unit": u}, ...}, with the
/// sample count added when `samples` is set.
std::string MetricsJson(const Report& rep, bool samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (i > 0) out += ", ";
    AppendJsonString(&out, m.name);
    out += ": {\"value\": " + Num(m.value) + ", \"unit\": ";
    AppendJsonString(&out, m.unit);
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void WriteDetail(const std::string& path, const Workload& w, const Args& a,
                 const Report& rep) {
  std::string out = "{\"workload\": ";
  AppendJsonString(&out, w.name);
  out += ", \"spec\": ";
  AppendJsonString(&out, std::string(w.spec) + ",seed=" + std::to_string(a.seed));
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"seconds\": " + Num(a.seconds);
  out += ", \"trace\": " + std::string(a.trace ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"topology\": {\"shards\": " + std::to_string(kShards) +
         ", \"consumers\": " + std::to_string(kConsumers) +
         ", \"io_threads\": " + std::to_string(kIoThreads) +
         ", \"connections\": " + std::to_string(kConnections) +
         ", \"generator_threads\": 1, \"cache_pages\": " +
         std::to_string(kCachePages) +
         ", \"batch\": " + std::to_string(ServeBatch(w)) +
         ", \"rate_rps\": " + Num(w.rate_rps) + "}";
  out += ", \"correct\": " + std::string(rep.errors.empty() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, rep.errors[i]);
  }
  out += "], \"info\": {";
  for (std::size_t i = 0; i < rep.info.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, rep.info[i].first);
    out += ": " + Num(rep.info[i].second);
  }
  out += "}, \"metrics\": " + MetricsJson(rep, true) + "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(out.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "%s: cannot write %s\n", kProg, path.c_str());
  }
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(a.workload);
  std::error_code ec;
  std::filesystem::create_directories(a.work_dir, ec);
  if (ec) clic::cli::Die(kProg, "cannot create " + a.work_dir + ": " + ec.message());

  Report rep;
  Setup setup;
  SetUp(w, a, &setup);
  const Trace& trace = *setup.trace;

  double hit_ratio = 0.0;
  if (w.wire) hit_ratio = VerifyDeterministic(w, trace, &rep);
  Tracer tracer;
  if (a.trace) {
    tracer = Tracer(kSpanCapacity);
    if (!w.wire) {
      // The replay gate still runs: one pass, checked against the pin.
      const auto policy = clic::MakePolicy(PolicyKind::kClic, kCachePages,
                                           nullptr, ClicOptionsFor(w));
      hit_ratio = clic::Simulate(trace, *policy).total.ReadHitRatio();
    }
    setup.server.reset();
    RunLadder(w, trace, a.seconds, &tracer, &rep);
  } else {
    if (w.wire) {
      rep.Add("read_hit_ratio", hit_ratio, "ratio", trace.size());
      RunWire(w, a, trace, setup.server.get(), &rep);
    } else {
      hit_ratio = RunReplay(w, a, trace, &rep);
    }
    rep.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  }
  // The other set-up repetitions come after the run and after peak RSS
  // is read: repeating set-up first left the memory of its server
  // threads behind and raised peak_rss_mb by 5-8 MB, varying by seed.
  for (int r = 1; r < (a.smoke ? 1 : kSetupReps); ++r) SetUp(w, a, &setup);
  if (a.trace) {
    rep.Add("workload.trace_gen_s", Median(setup.trace_gen_s), "s",
            setup.trace_gen_s.size());
  } else {
    rep.Add("setup_s", Median(setup.setup_s), "s", setup.setup_s.size());
  }
  if (a.seed == 1 && hit_ratio != w.pinned_hit_ratio) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "read_hit_ratio %.17g at seed 1, pinned %.17g", hit_ratio,
                  w.pinned_hit_ratio);
    rep.Fail(buf);
  }
  for (const Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) rep.Fail(m.name + " is not finite");
  }
  setup.server.reset();
  setup.cache.reset();
  std::filesystem::remove_all(a.work_dir, ec);

  if (a.trace && !a.spans.empty() &&
      !tracer.WriteChromeJson(a.spans, kSpansWrittenPerName)) {
    rep.Fail("cannot write " + a.spans);
  }
  if (!a.out.empty()) WriteDetail(a.out, w, a, rep);
  for (const Metric& m : rep.metrics) {
    std::printf("%s %s %.10g %s\n", w.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, value] : rep.info) {
    std::fprintf(stderr, "%s info %s %.10g\n", w.name, name.c_str(), value);
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "%s FAILED: %s\n", w.name, e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              rep.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              MetricsJson(rep, false).c_str());
  return rep.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace clic_bench

int main(int argc, char** argv) { return clic_bench::Main(argc, argv); }
