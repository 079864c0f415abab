// clic_sweep's command line: its flag table (common/cli_util.h) and the
// parse that resolves a --figure preset, the explicit grid axes and the
// CLIC flags into one SweepSpec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli_util.h"
#include "sweep/sweep.h"

namespace clic::sweep {

/// What one clic_sweep command line asks for.
struct SweepCommand {
  SweepSpec spec;
  unsigned threads = 0;        // 0 = hardware concurrency
  std::uint64_t requests = 0;  // 0 = CLIC_BENCH_REQUESTS / default
  std::string cache_dir;       // empty = CLIC_TRACE_CACHE_DIR / default
  std::string format = "csv";
  std::string output;  // empty = stdout
};

/// Parses argv without the program name. The explicit axes and CLIC
/// flags override a --figure preset's, wherever they appear.
cli::Parsed<SweepCommand> ParseSweepCommand(
    const std::vector<std::string>& args);

/// "6, 7, ..." — the --figure names, from the one preset table.
std::string FigureNames();

}  // namespace clic::sweep
