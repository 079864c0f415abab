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
#include <chrono>
#include <cstdio>
#include <cstdlib>
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
      "%s"
      "\n"
      "Output:\n"
      "  --format=csv|json  csv: header + one line per point;\n"
      "                     json: one array of row objects\n"
      "  --output=FILE      default: stdout\n"
      "  --list             print known traces and policies, then exit\n"
      "  --help             this text\n",
      cli::kClicFlagsHelp);
}

[[noreturn]] void Die(const std::string& message) {
  cli::Die(kProg, message);
}

std::uint64_t ParseU64(const std::string& flag, const std::string& value) {
  return cli::ParseU64(kProg, flag, value);
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
  cli::ClicFlags clic_flags;
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
    if (clic_flags.Parse(kProg, arg)) continue;
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
    std::string error;
    std::optional<std::vector<std::string>> tokens =
        SplitWorkloadList(traces, &error);
    if (!tokens) Die("--traces: " + error);
    cli.spec.traces = std::move(*tokens);
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
    clic_flags.ApplyTo(variant.options);
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

  cli::OutputFile out(kProg, cli.output);

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
    std::fprintf(out.get(), "%s\n", RowOf(SweepRow{}).CsvHeader().c_str());
    for (const SweepRow& row : rows) {
      std::fprintf(out.get(), "%s\n", RowOf(row).Csv().c_str());
    }
  } else {
    std::fprintf(out.get(), "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(out.get(), "  %s%s\n", RowOf(rows[i]).Json().c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out.get(), "]\n");
  }
  if (!out.Close()) return 1;

  std::fprintf(stderr, "clic_sweep: done in %.2fs wall\n", elapsed.count());
  return 0;
}

}  // namespace
}  // namespace clic::sweep

int main(int argc, char** argv) { return clic::sweep::Main(argc, argv); }
