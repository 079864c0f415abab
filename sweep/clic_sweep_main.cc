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
#include "sweep/sweep_cli.h"
#include "sweep/trace_cache.h"
#include "workload/scenario.h"
#include "workload/token.h"
#include "workload/trace_factory.h"

namespace clic::sweep {
namespace {

constexpr char kProg[] = "clic_sweep";

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

int Main(int argc, char** argv) {
  const cli::Parsed<SweepCommand> parsed =
      ParseSweepCommand({argv + 1, argv + argc});
  if (parsed.action == cli::Action::kReject) cli::Die(kProg, parsed.text);
  if (parsed.action == cli::Action::kList) PrintList();
  if (parsed.action != cli::Action::kRun) {
    std::fputs(parsed.text.c_str(), stdout);  // the help; empty for --list
    return 0;
  }
  const SweepCommand& cli = parsed.options;

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
