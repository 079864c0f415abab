// clic_sweep: replay any figure's (trace × policy × CLIC variant ×
// cache-size) grid on a thread pool and emit one CSV or JSON row per
// point.
//
//   clic_sweep --figure=6 --threads=8 --format=csv --output=fig6.csv
//   clic_sweep --traces=DB2_C60,MY_H65 --policies=LRU,CLIC
//              --cache-pages=6000,12000 --threads=4 --format=json
//
// Row order is the grid expansion order (traces, then policies, then
// CLIC variants, then cache sizes) for every thread count, so outputs
// from different --threads values diff clean (wall_seconds column
// aside).
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_util.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"
#include "workload/scenario.h"
#include "workload/token.h"
#include "workload/trace_factory.h"

namespace clic::sweep {
namespace {

constexpr char kProg[] = "clic_sweep";

struct CliOptions {
  SweepSpec spec;
  unsigned threads = 0;  // 0 = hardware concurrency
  std::uint64_t requests = 0;  // 0 = CLIC_BENCH_REQUESTS / default
  std::string cache_dir;       // empty = CLIC_TRACE_CACHE_DIR / default
  std::string format = "csv";
  std::string output;  // empty = stdout
};

/// "6, 7, ..." — the --figure names, from the one preset table.
std::string FigureNames() {
  std::string out;
  for (const FigurePreset& preset : FigurePresets()) {
    if (!out.empty()) out.append(", ");
    out.append(preset.name);
  }
  return out;
}

void Usage(std::FILE* out) {
  std::fprintf(
      out,
      "Usage: clic_sweep [flags]\n"
      "\n"
      "Grid selection (a --figure preset, explicit flags, or both —\n"
      "explicit flags override the preset's corresponding field):\n"
      "  --figure=NAME             preset grid, one of: %s\n"
      "                            (6-11 are the paper's figures,\n"
      "                            ablation|window|outqueue|tracker its\n"
      "                            ablations, the rest scenario grids)\n"
      "  --traces=A,B              workload tokens (see --list)\n"
      "  --policies=LRU,CLIC       policy names (see --list)\n"
      "  --cache-pages=6000,12000  server cache sizes, in pages\n",
      FigureNames().c_str());
  std::fprintf(
      out,
      "\n"
      "Execution:\n"
      "  --threads=N        worker threads (default: hardware concurrency)\n"
      "  --requests=N       cap trace length (overrides CLIC_BENCH_REQUESTS)\n"
      "  --cache-dir=PATH   trace cache dir (overrides "
      "CLIC_TRACE_CACHE_DIR)\n"
      "\n"
      "CLIC options (defaults are the paper's Section 6.1 setup; each\n"
      "flag overrides its field in every variant of a preset):\n"
      "  --window=W --decay=R --outqueue=N --no-charge-metadata\n"
      "  --tracker=exact|space_saving|lossy_counting --top-k=K\n"
      "  --adaptive-window  churn-triggered early window close (see\n"
      "                     DESIGN.md \"Adaptive windowing\")\n"
      "  --churn-threshold=S  early-close rank-similarity trigger in "
      "[0, 1]\n"
      "  --min-window=N --max-window=N  effective-window bounds\n"
      "                     (defaults: window/16 and window)\n"
      "\n"
      "Output:\n"
      "  --format=csv|json  csv: header + one line per point;\n"
      "                     json: one array of row objects\n"
      "  --output=FILE      default: stdout\n"
      "  --list             print known traces and policies, then exit\n"
      "  --help             this text\n");
}

[[noreturn]] void Die(const std::string& message) {
  cli::Die(kProg, message);
}

std::uint64_t ParseU64(const std::string& flag, const std::string& value) {
  return cli::ParseU64(kProg, flag, value);
}

double ParseDouble(const std::string& flag, const std::string& value) {
  return cli::ParseDouble(kProg, flag, value);
}

void ValidateTraceNames(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    cli::RequireKnownWorkload(kProg, "--traces", name);
  }
}

void PrintList() {
  std::printf("Traces (name dbms workload db_pages buffer_pages "
              "target_requests):\n");
  for (const NamedTraceInfo& info : NamedTraces()) {
    std::printf("  %-9s %-5s %-4s %8llu %8llu %9llu\n", info.name.c_str(),
                info.dbms.c_str(), info.workload.c_str(),
                static_cast<unsigned long long>(info.db_pages),
                static_cast<unsigned long long>(info.buffer_pages),
                static_cast<unsigned long long>(info.target_requests));
  }
  std::printf("Scenario presets (workload/scenario.h; also usable as "
              "--traces tokens):\n");
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    std::printf("  %-13s %s\n      = %s\n", preset.name, preset.blurb,
                preset.spec);
  }
  std::printf("Derived tokens: <token>~noise=<T> (Section 6.3 noise, T in "
              "0..%d), <a>+<b>[+...] (round-robin interleave)\n",
              kMaxNoiseTypes);
  std::printf("Figure presets: %s\n", FigureNames().c_str());
  std::printf("Policies:");
  for (PolicyKind kind : AllPolicies()) {
    std::printf(" %s", PolicyName(kind));
  }
  std::printf("\n");
}

CliOptions Parse(int argc, char** argv) {
  CliOptions cli;
  // Explicit CLIC flags, applied to every variant once the grid is
  // known, so they beat a preset's options wherever they appear.
  std::vector<std::function<void(ClicOptions&)>> clic_flags;
  std::string figure, traces, policies, cache_pages;
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
    if (arg == "--no-charge-metadata") {
      clic_flags.push_back([](ClicOptions& o) { o.charge_metadata = false; });
      continue;
    }
    if (arg == "--adaptive-window") {
      clic_flags.push_back([](ClicOptions& o) { o.adaptive_window = true; });
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("unrecognized argument '" + arg + "'");
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "--figure") {
      figure = value;
    } else if (key == "--traces") {
      traces = value;
    } else if (key == "--policies") {
      policies = value;
    } else if (key == "--cache-pages") {
      cache_pages = value;
    } else if (key == "--threads") {
      const std::uint64_t threads = ParseU64(key, value);
      if (threads > 4096) Die(key + "='" + value + "' is unreasonably large");
      cli.threads = static_cast<unsigned>(threads);
    } else if (key == "--requests") {
      cli.requests = ParseU64(key, value);
    } else if (key == "--cache-dir") {
      cli.cache_dir = value;
    } else if (key == "--window") {
      const std::uint64_t w = ParseU64(key, value);
      clic_flags.push_back([w](ClicOptions& o) { o.window = w; });
    } else if (key == "--churn-threshold") {
      const double t = ParseDouble(key, value);
      clic_flags.push_back([t](ClicOptions& o) { o.churn_threshold = t; });
    } else if (key == "--min-window") {
      const std::uint64_t w = ParseU64(key, value);
      clic_flags.push_back([w](ClicOptions& o) { o.min_window = w; });
    } else if (key == "--max-window") {
      const std::uint64_t w = ParseU64(key, value);
      clic_flags.push_back([w](ClicOptions& o) { o.max_window = w; });
    } else if (key == "--decay") {
      const double r = ParseDouble(key, value);
      clic_flags.push_back([r](ClicOptions& o) { o.decay = r; });
    } else if (key == "--outqueue") {
      const double n = ParseDouble(key, value);
      clic_flags.push_back([n](ClicOptions& o) { o.outqueue_per_page = n; });
    } else if (key == "--top-k") {
      const auto k = static_cast<std::size_t>(ParseU64(key, value));
      clic_flags.push_back([k](ClicOptions& o) { o.top_k = k; });
    } else if (key == "--tracker") {
      TrackerKind kind = TrackerKind::kExact;
      if (value == "space_saving") {
        kind = TrackerKind::kSpaceSaving;
      } else if (value == "lossy_counting") {
        kind = TrackerKind::kLossyCounting;
      } else if (value != "exact") {
        Die("unknown --tracker='" + value + "'");
      }
      clic_flags.push_back([kind](ClicOptions& o) { o.tracker = kind; });
    } else if (key == "--format") {
      if (value != "csv" && value != "json") {
        Die("unknown --format='" + value + "' (want csv or json)");
      }
      cli.format = value;
    } else if (key == "--output") {
      cli.output = value;
    } else {
      Die("unrecognized flag '" + key + "'");
    }
  }

  if (!figure.empty()) {
    std::optional<SweepSpec> preset = FigureSpec(figure);
    if (!preset) {
      Die("unknown --figure='" + figure + "' (valid figures: " +
          FigureNames() + ")");
    }
    cli.spec = std::move(*preset);
  }
  if (!traces.empty()) {
    cli.spec.traces = ::clic::cli::SplitCsvFlag(kProg, "--traces", traces);
  }
  if (!policies.empty()) {
    cli.spec.policies.clear();
    for (const std::string& name :
         ::clic::cli::SplitCsvFlag(kProg, "--policies", policies)) {
      cli.spec.policies.push_back(
          ::clic::cli::RequirePolicy(kProg, "--policies", name));
    }
  }
  if (!cache_pages.empty()) {
    cli.spec.cache_sizes.clear();
    for (const std::string& size :
         ::clic::cli::SplitCsvFlag(kProg, "--cache-pages", cache_pages)) {
      cli.spec.cache_sizes.push_back(
          static_cast<std::size_t>(ParseU64("--cache-pages", size)));
    }
  }
  if (cli.spec.traces.empty() || cli.spec.policies.empty() ||
      cli.spec.cache_sizes.empty()) {
    Die("empty grid: need --figure or all of --traces/--policies/"
        "--cache-pages");
  }
  ValidateTraceNames(cli.spec.traces);
  for (ClicVariant& variant : cli.spec.variants) {
    for (const auto& apply : clic_flags) apply(variant.options);
    cli::RequireValidAdaptiveWindow(kProg, variant.options);
  }
  return cli;
}

int Main(int argc, char** argv) {
  const CliOptions cli = Parse(argc, argv);

  const unsigned threads =
      cli.threads > 0 ? cli.threads
                      : std::max(1u, std::thread::hardware_concurrency());
  const std::string dir =
      cli.cache_dir.empty() ? CacheDirFromEnv() : cli.cache_dir;
  const std::uint64_t cap =
      cli.requests > 0 ? cli.requests : RequestCapFromEnv();
  TraceCache cache(dir, cap);

  SweepRunner runner(
      [&cache](const std::string& name) -> const Trace& {
        return cache.Get(name);
      },
      threads);

  // Open the output before the sweep: a bad --output path must fail in
  // milliseconds, not after minutes of simulation.
  std::FILE* out = stdout;
  if (!cli.output.empty()) {
    out = std::fopen(cli.output.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "clic_sweep: cannot open '%s': %s\n",
                   cli.output.c_str(), std::strerror(errno));
      return 1;
    }
  }

  const std::size_t num_points = ExpandGrid(cli.spec).size();
  std::fprintf(stderr,
               "clic_sweep: %zu points (%zu traces x %zu policies x %zu "
               "cache sizes, %zu CLIC variants), %u threads, request cap "
               "%llu\n",
               num_points, cli.spec.traces.size(), cli.spec.policies.size(),
               cli.spec.cache_sizes.size(), cli.spec.variants.size(), threads,
               static_cast<unsigned long long>(cap));

  const auto start = std::chrono::steady_clock::now();
  const std::vector<SweepRow> rows = runner.Run(cli.spec);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (cli.format == "csv") {
    std::fprintf(out, "%s\n", CsvHeader().c_str());
    for (const SweepRow& row : rows) {
      std::fprintf(out, "%s\n", CsvRow(row).c_str());
    }
  } else {
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(out, "  %s%s\n", JsonRow(rows[i]).c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
  }
  // A failed write (e.g. ENOSPC) must not exit 0 with a truncated
  // file; the flush on fclose can be the first call to see the error.
  bool write_ok = std::ferror(out) == 0;
  if (out != stdout) {
    write_ok = std::fclose(out) == 0 && write_ok;
  } else {
    write_ok = std::fflush(out) == 0 && write_ok;
  }
  if (!write_ok) {
    std::fprintf(stderr, "clic_sweep: error writing %s: %s\n",
                 cli.output.empty() ? "stdout" : cli.output.c_str(),
                 std::strerror(errno));
    return 1;
  }

  std::fprintf(stderr, "clic_sweep: done in %.2fs wall\n", elapsed.count());
  return 0;
}

}  // namespace
}  // namespace clic::sweep

int main(int argc, char** argv) { return clic::sweep::Main(argc, argv); }
