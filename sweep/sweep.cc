#include "sweep/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace clic::sweep {
namespace {

/// First exception a pool worker threw, with its annotated guard so the
/// clang thread-safety build checks the error handoff like any other
/// shared state.
struct ErrorSlot {
  Mutex mu;
  std::exception_ptr first CLIC_GUARDED_BY(mu);
};

/// Runs fn(0..n-1) across `threads` workers pulling indices from a
/// shared atomic counter. fn must be safe to call concurrently for
/// distinct indices. An exception thrown by fn stops the pool (workers
/// finish their current item and exit) and is rethrown on the calling
/// thread, so throwing behaves the same at any thread count.
void RunOnPool(unsigned threads, std::size_t n,
               const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  ErrorSlot error;
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error.mu);
        if (!error.first) error.first = std::current_exception();
        next.store(n, std::memory_order_relaxed);  // stop handing out work
        return;
      }
    }
  };
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, n));
  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (unsigned t = 0; t < workers; ++t) pool.emplace_back(drain);
    } catch (...) {
      // Thread startup failed (e.g. ulimit): stop handing out work and
      // join what started — destroying a joinable std::thread would
      // terminate the process instead of surfacing the error.
      next.store(n, std::memory_order_relaxed);
      for (std::thread& t : pool) t.join();
      throw;
    }
    for (std::thread& t : pool) t.join();
  }
  // Workers are joined (or drain() ran inline), so the lock is
  // uncontended — held anyway to keep the guarded access checkable.
  MutexLock lock(error.mu);
  if (error.first) std::rethrow_exception(error.first);
}

}  // namespace

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (char c : value) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string JsonEscaped(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '"':
        out.append("\\\"");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string StatsJson(const CacheStats& stats) {
  return "{\"reads\":" + std::to_string(stats.reads) +
         ",\"read_hits\":" + std::to_string(stats.read_hits) +
         ",\"writes\":" + std::to_string(stats.writes) +
         ",\"write_hits\":" + std::to_string(stats.write_hits) + "}";
}

Row& Row::Add(const std::string& name, std::string csv, std::string json) {
  fields_.push_back({name, std::move(csv), std::move(json)});
  return *this;
}

Row& Row::Text(const std::string& name, const std::string& value) {
  return Add(name, CsvField(value), '"' + JsonEscaped(value) + '"');
}

Row& Row::Count(const std::string& name, std::uint64_t value) {
  return Add(name, std::to_string(value), std::to_string(value));
}

Row& Row::Real(const std::string& name, double value) {
  std::string text;
  AppendDouble(&text, value);
  return Add(name, text, text);
}

Row& Row::Flag(const std::string& name, bool value) {
  return Add(name, value ? "1" : "0", value ? "true" : "false");
}

Row& Row::Stats(const CacheStats& stats) {
  return Count("reads", stats.reads)
      .Count("writes", stats.writes)
      .Count("read_hits", stats.read_hits)
      .Count("write_hits", stats.write_hits)
      .Real("read_hit_ratio", stats.ReadHitRatio())
      .Real("write_hit_ratio", stats.WriteHitRatio());
}

Row& Row::PerClient(const SimResult& result) {
  std::string csv;
  std::string json = "{";
  for (const auto& [client, stats] : result.per_client) {
    if (!csv.empty()) {
      csv.push_back(';');
      json.push_back(',');
    }
    csv.append(std::to_string(client) + "=" + std::to_string(stats.reads) +
               ":" + std::to_string(stats.read_hits) + ":" +
               std::to_string(stats.writes) + ":" +
               std::to_string(stats.write_hits));
    json.append("\"" + std::to_string(client) + "\":" + StatsJson(stats));
  }
  json.push_back('}');
  return Add("per_client", CsvField(csv), std::move(json));
}

Row& Row::JsonOnly(const std::string& name, std::string json) {
  Add(name, "", std::move(json));
  fields_.back().in_csv = false;
  return *this;
}

std::string Row::CsvJoin(std::string Field::*part) const {
  std::string out;
  bool first = true;
  for (const Field& f : fields_) {
    if (!f.in_csv) continue;
    if (!first) out.push_back(',');
    first = false;
    out.append(f.*part);
  }
  return out;
}

std::string Row::CsvHeader() const { return CsvJoin(&Field::name); }

std::string Row::Csv() const { return CsvJoin(&Field::csv); }

std::string Row::Json() const {
  std::string out = "{";
  for (const Field& f : fields_) {
    if (out.size() > 1) out.push_back(',');
    out.append("\"" + JsonEscaped(f.name) + "\":" + f.json);
  }
  out.push_back('}');
  return out;
}

std::vector<SweepPoint> ExpandGrid(const SweepSpec& spec) {
  const std::vector<ClicVariant> not_clic(1);
  std::vector<SweepPoint> points;
  for (const std::string& trace : spec.traces) {
    for (PolicyKind policy : spec.policies) {
      const std::vector<ClicVariant>& variants =
          policy == PolicyKind::kClic ? spec.variants : not_clic;
      for (const ClicVariant& variant : variants) {
        for (std::size_t cache_pages : spec.cache_sizes) {
          SweepPoint p;
          p.index = points.size();
          p.trace = trace;
          p.policy = policy;
          p.variant = variant.label;
          p.clic = variant.options;
          p.cache_pages = cache_pages;
          points.push_back(std::move(p));
        }
      }
    }
  }
  return points;
}

namespace {

SweepSpec Grid(std::vector<std::string> traces,
               std::vector<PolicyKind> policies,
               std::vector<std::size_t> cache_sizes,
               std::vector<ClicVariant> variants = {ClicVariant{}}) {
  SweepSpec spec;
  spec.traces = std::move(traces);
  spec.policies = std::move(policies);
  spec.cache_sizes = std::move(cache_sizes);
  spec.variants = std::move(variants);
  return spec;
}

/// CLIC with a Space-Saving tracker granting priorities to the top k
/// hint sets (Section 5), as Figures 9-11 run it.
ClicOptions TopK(std::size_t k) {
  ClicOptions options;
  options.tracker = TrackerKind::kSpaceSaving;
  options.top_k = k;
  return options;
}

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::vector<FigurePreset> BuildPresets() {
  const std::vector<std::size_t> db2_caches = {6'000, 12'000, 18'000,
                                               24'000, 30'000};
  const std::array<PolicyKind, 5> paper_array = PaperPolicies();
  const std::vector<PolicyKind> paper(paper_array.begin(), paper_array.end());
  const std::vector<PolicyKind> clic = {PolicyKind::kClic};
  const std::vector<std::string> tpcc = {"DB2_C60", "DB2_C300", "DB2_C540"};
  // The scenario grids compare the online-servable policies the
  // scenarios stress: LRU (the pollution victim), ARC (scan-resistant
  // without hints), TQ (write hints only), CLIC (full hints).
  const std::vector<PolicyKind> scenario = {
      PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kTq, PolicyKind::kClic};
  std::vector<FigurePreset> presets;

  presets.push_back({"6", Grid(tpcc, paper, db2_caches)});
  presets.push_back(
      {"7", Grid({"DB2_H80", "DB2_H400", "DB2_H720"}, paper, db2_caches)});
  presets.push_back(
      {"8", Grid({"MY_H65", "MY_H98"}, paper, {5'000, 7'500, 10'000})});

  // Figure 9: Space-Saving top-k for k = 1..128, then exact tracking.
  std::vector<ClicVariant> top_k;
  for (std::size_t k = 1; k <= 128; k *= 2) {
    top_k.push_back({"k=" + std::to_string(k), TopK(k)});
  }
  top_k.push_back({"exact", ClicOptions{}});
  presets.push_back({"9",
                     Grid({"DB2_C60", "DB2_C300", "DB2_C540", "DB2_H80",
                           "DB2_H400", "DB2_H720"},
                          clic, {18'000}, top_k)});

  // Figure 10: T = 0..3 noise hint types at k = 100, with and without
  // the Section 8 hint generalization tree.
  std::vector<std::string> noisy;
  for (const std::string& base : tpcc) {
    noisy.push_back(base);
    for (int t = 1; t <= 3; ++t) {
      noisy.push_back(base + "~noise=" + std::to_string(t));
    }
  }
  ClicOptions generalized = TopK(100);
  generalized.generalize = true;
  presets.push_back({"10", Grid(noisy, clic, {18'000},
                                {{"plain", TopK(100)},
                                 {"generalized", generalized}})});

  // Figure 11: three TPC-C clients sharing an 18K cache (the interleave
  // row, per-client hits in per_client) against each client alone in a
  // 6K partition.
  std::vector<std::string> clients = {"DB2_C60+DB2_C300+DB2_C540"};
  clients.insert(clients.end(), tpcc.begin(), tpcc.end());
  presets.push_back(
      {"11", Grid(clients, clic, {6'000, 18'000}, {{"k=100", TopK(100)}})});

  presets.push_back(
      {"ablation", Grid({"DB2_C300"},
                        {PolicyKind::kLru, PolicyKind::kClock,
                         PolicyKind::kTwoQ, PolicyKind::kMq, PolicyKind::kArc,
                         PolicyKind::kTq, PolicyKind::kClic},
                        {12'000})});

  // Section 3.2: window length W × decay r, each with the fixed and the
  // churn-triggered adaptive window.
  std::vector<ClicVariant> windows;
  for (std::uint64_t w : {25'000u, 50'000u, 100'000u, 200'000u, 400'000u}) {
    for (double r : {0.25, 0.5, 1.0}) {
      for (bool adaptive : {false, true}) {
        ClicOptions options;
        options.window = w;
        options.decay = r;
        options.adaptive_window = adaptive;
        windows.push_back({"W=" + std::to_string(w) + "/r=" + Num(r) +
                               (adaptive ? "/adaptive" : "/fixed"),
                           options});
      }
    }
  }
  presets.push_back({"window", Grid({"DB2_C300"}, clic, {12'000}, windows)});

  // Section 6.1: outqueue entries per cache page.
  std::vector<ClicVariant> outqueues;
  for (double per_page : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    ClicOptions options;
    options.outqueue_per_page = per_page;
    outqueues.push_back({"outq=" + Num(per_page), options});
  }
  presets.push_back(
      {"outqueue", Grid({"DB2_C300"}, clic, {12'000}, outqueues)});

  // Section 5: exact tracking against both approximate trackers.
  std::vector<ClicVariant> trackers = {{"exact", ClicOptions{}}};
  for (TrackerKind kind :
       {TrackerKind::kSpaceSaving, TrackerKind::kLossyCounting}) {
    for (std::size_t k : {10u, 100u}) {
      ClicOptions options = TopK(k);
      options.tracker = kind;
      trackers.push_back({std::string(kind == TrackerKind::kSpaceSaving
                                          ? "space_saving"
                                          : "lossy_counting") +
                              "/k=" + std::to_string(k),
                          options});
    }
  }
  presets.push_back({"tracker", Grid({"DB2_C300", "DB2_H400"}, clic,
                                     {12'000}, trackers)});

  // Skew sweep: inline specs so the theta axis is explicit in the trace
  // column of every row.
  presets.push_back({"zipf-sweep",
                     Grid({"zipf:theta=0.5", "zipf:theta=0.7",
                           "zipf:theta=0.9", "zipf:theta=0.99"},
                          scenario, {6'000, 12'000, 24'000})});
  // The headline scenario grid: the same hot set with and without scan
  // pollution, at the paper's cache sizes.
  presets.push_back({"scan-pollution", Grid({"zipf-hot", "scan-pollute"},
                                            scenario, db2_caches)});
  // Phase shifts: the paper's W=1e5/r=1 straddles phase boundaries, so
  // CLIC protects the *previous* working set. The adaptive window and a
  // hand-tuned short window with fast decay are the two recoveries (see
  // DESIGN.md "Workload scenarios" and "Adaptive windowing").
  ClicOptions adaptive;
  adaptive.adaptive_window = true;
  ClicOptions short_window;
  short_window.window = 20'000;
  short_window.decay = 0.2;
  presets.push_back({"phase-shift",
                     Grid({"phase-abrupt", "phase-gradual"}, scenario,
                          {6'000, 12'000, 18'000},
                          {{"paper", ClicOptions{}},
                           {"adaptive", adaptive},
                           {"W=20000/r=0.2", short_window}})});
  presets.push_back({"tenant-mix", Grid({"tenant-mix4"}, scenario,
                                        {6'000, 12'000, 24'000})});
  return presets;
}

}  // namespace

const std::vector<FigurePreset>& FigurePresets() {
  static const std::vector<FigurePreset> presets = BuildPresets();
  return presets;
}

std::optional<SweepSpec> FigureSpec(const std::string& figure) {
  for (const FigurePreset& preset : FigurePresets()) {
    if (preset.name == figure) return preset.spec;
  }
  return std::nullopt;
}

SweepRunner::SweepRunner(TraceProvider provider, unsigned threads)
    : provider_(std::move(provider)), threads_(std::max(1u, threads)) {}

std::vector<SweepRow> SweepRunner::Run(const SweepSpec& spec) const {
  const std::vector<SweepPoint> points = ExpandGrid(spec);
  std::vector<SweepRow> rows(points.size());

  // Phase 1: resolve every distinct trace through the provider, on the
  // pool so distinct traces generate/load concurrently. After this the
  // replay phase touches traces read-only and its wall times contain
  // no generation or disk work.
  std::vector<std::string> names;
  for (const SweepPoint& p : points) {
    if (std::find(names.begin(), names.end(), p.trace) == names.end()) {
      names.push_back(p.trace);
    }
  }
  std::vector<const Trace*> resolved(names.size(), nullptr);
  RunOnPool(threads_, names.size(),
            [&](std::size_t i) { resolved[i] = &provider_(names[i]); });
  std::unordered_map<std::string, const Trace*> traces;
  traces.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    traces.emplace(names[i], resolved[i]);
  }

  // Phase 2: replay the points. Workers write disjoint rows[i] slots,
  // so the output order is the expansion order by construction.
  RunOnPool(threads_, points.size(), [&](std::size_t i) {
    const SweepPoint& p = points[i];
    const Trace& trace = *traces.at(p.trace);
    // The generalization tree reads hint attributes from the trace's
    // own registry, so a generalizing variant fits every trace.
    ClicOptions clic = p.clic;
    if (clic.generalize) clic.hint_space = trace.hints;
    const auto start = std::chrono::steady_clock::now();
    const auto policy = MakePolicy(p.policy, p.cache_pages, &trace, clic);
    SimResult result = Simulate(trace, *policy);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    rows[i].point = p;
    rows[i].result = std::move(result);
    rows[i].wall_seconds = elapsed.count();
  });
  return rows;
}

Row RowOf(const SweepRow& row) {
  const CacheStats& t = row.result.total;
  Row out;
  out.Text("trace", row.point.trace)
      .Text("policy", PolicyName(row.point.policy))
      .Text("variant", row.point.variant)
      .Count("cache_pages", row.point.cache_pages)
      .Count("requests", t.reads + t.writes)
      .Stats(t)
      .Real("wall_seconds", row.wall_seconds)
      .PerClient(row.result);
  return out;
}

}  // namespace clic::sweep
