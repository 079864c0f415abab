// Figure 3: caching priority vs frequency of occurrence for every hint
// set in the DB2_C60 trace. The paper plots one point per hint set;
// this program runs CLIC's exact hint analysis over the whole trace as
// a single window and prints the scatter as CSV, one row per hint set
// the trace uses: its id, frequency, Equation-2 priority (%.17g, so
// the value is exact) and hint vector. Rows run from the most frequent
// hint set down, ties by id. CLIC_BENCH_REQUESTS caps the trace and
// CLIC_TRACE_CACHE_DIR relocates the trace cache.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/clic.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"

int main() {
  using namespace clic;
  sweep::TraceCache cache(sweep::CacheDirFromEnv(),
                          sweep::RequestCapFromEnv());
  const Trace& trace = cache.Get("DB2_C60");

  // The paper's options with one window covering the whole trace, so
  // the priorities are the analysis of the complete request stream,
  // like the figure. (+1 so the automatic boundary never fires; the
  // ForceEndWindow below is the single harvest.)
  ClicOptions options;
  options.window = trace.size() + 1;
  ClicPolicy clic(18'000, options);
  std::vector<std::uint64_t> frequency(trace.hints->size(), 0);
  SeqNum seq = 0;
  for (const Request& r : trace.requests) {
    clic.Access(r, seq++);
    ++frequency[r.hint_set];
  }
  clic.ForceEndWindow();

  std::vector<double> priority(frequency.size(), 0.0);
  for (const auto& [hint, value] : clic.Priorities()) priority[hint] = value;
  std::vector<HintSetId> rows;
  for (HintSetId h = 0; h < frequency.size(); ++h) {
    if (frequency[h] > 0) rows.push_back(h);
  }
  std::stable_sort(rows.begin(), rows.end(), [&](HintSetId a, HintSetId b) {
    return frequency[a] > frequency[b];
  });

  std::string out = "hint_set,frequency,priority,hints\n";
  for (HintSetId h : rows) {
    out += std::to_string(h) + ',' + std::to_string(frequency[h]) + ',';
    sweep::AppendDouble(&out, priority[h]);
    out += ',' + sweep::CsvField(trace.hints->Describe(h)) + '\n';
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return std::fflush(stdout) == 0 && std::ferror(stdout) == 0 ? 0 : 1;
}
