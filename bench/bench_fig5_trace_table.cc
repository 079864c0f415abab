// Figure 5: the I/O request trace inventory. Generates (or loads from
// the trace cache) all eight scaled traces and prints, as CSV, the
// columns the paper reports: DBMS, workload, database and client
// buffer size in pages, and each trace's requests, distinct hint sets
// and distinct pages. CLIC_BENCH_REQUESTS caps the traces and
// CLIC_TRACE_CACHE_DIR relocates the trace cache.
#include <cstdio>
#include <string>

#include "sweep/sweep.h"
#include "sweep/trace_cache.h"
#include "workload/trace_factory.h"

int main() {
  using namespace clic;
  sweep::TraceCache cache(sweep::CacheDirFromEnv(),
                          sweep::RequestCapFromEnv());
  std::string out =
      "trace,dbms,workload,db_pages,buffer_pages,requests,hint_sets,pages\n";
  for (const NamedTraceInfo& info : NamedTraces()) {
    const TraceStats stats = ComputeStats(cache.Get(info.name));
    out += sweep::CsvField(info.name) + ',' + sweep::CsvField(info.dbms) +
           ',' + sweep::CsvField(info.workload) + ',' +
           std::to_string(info.db_pages) + ',' +
           std::to_string(info.buffer_pages) + ',' +
           std::to_string(stats.requests) + ',' +
           std::to_string(stats.distinct_hint_sets) + ',' +
           std::to_string(stats.distinct_pages) + '\n';
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return std::fflush(stdout) == 0 && std::ferror(stdout) == 0 ? 0 : 1;
}
