// Named synthetic traces standing in for the paper's Figure 5 inventory
// (DB2 and MySQL clients running TPC-C / TPC-H with various client
// buffer sizes), generated at 1/10 page scale. See DESIGN.md for the
// scaling rules and the per-trace target lengths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"

namespace clic {

struct NamedTraceInfo {
  std::string name;
  std::string dbms;      // "DB2" / "MySQL"
  std::string workload;  // "TPCC" / "TPCH"
  std::uint64_t db_pages = 0;
  std::uint64_t buffer_pages = 0;      // client buffer pool size
  std::uint64_t target_requests = 0;   // DESIGN.md scaled trace length
};

/// Bump whenever any generator's output changes for the same
/// (name, target) pair. Cache filenames embed it (see
/// sweep/trace_cache.cc), so stale .trc files are never silently
/// reused.
inline constexpr int kTraceGeneratorVersion = 1;

/// The eight traces of the evaluation, in Figure 5 order.
const std::vector<NamedTraceInfo>& NamedTraces();

/// Generates the named trace with at most `target_requests` requests
/// (0 means the full DESIGN.md length). Deterministic: the seed is
/// derived from the trace name only, so the same (name, target) pair is
/// byte-identical on every machine. Exits with an error for unknown
/// names.
Trace MakeNamedTrace(const std::string& name,
                     std::uint64_t target_requests = 0);

}  // namespace clic
