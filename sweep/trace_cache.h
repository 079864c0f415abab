// Trace cache with per-trace once-initialization.
//
// The sweep runner, the server and the figure programs replay the same
// workloads; a cache generates (or disk-loads) each trace exactly once
// and hands out shared immutable references. Locking
// is per trace: concurrent Get() calls for the *same* name block until
// one generation finishes, calls for *distinct* names generate in
// parallel — a whole-trace generation is a multi-second job, so a
// single global critical section would serialize the sweep thread pool.
#pragma once

#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/thread_annotations.h"
#include "core/trace.h"

namespace clic::sweep {

/// Parses CLIC_BENCH_REQUESTS (cap on generated trace length). Garbage
/// values are rejected loudly and fall back to the 2M default.
std::uint64_t RequestCapFromEnv();

/// CLIC_TRACE_CACHE_DIR, default "clic_trace_cache".
std::string CacheDirFromEnv();

/// Age below which a `*.tmp.<pid>.<counter>` file in the cache dir is
/// presumed to belong to a live racing saver (another bench process
/// mid-SaveTrace) and must never be collected. A healthy save lasts
/// seconds; ten minutes of slack keeps even a heavily loaded machine
/// safe while still reclaiming genuinely orphaned temp files.
inline constexpr std::time_t kStaleTempFileAgeSeconds = 600;

/// Removes `.tmp.` orphans under `dir` whose mtime is strictly older
/// than `max_age_seconds`. Returns the number of files removed.
/// TraceCache runs this once per process on first use; exposed so the
/// age-threshold contract is directly testable.
std::size_t CollectStaleTempFiles(const std::string& dir,
                                  std::time_t max_age_seconds =
                                      kStaleTempFileAgeSeconds);

class TraceCache {
 public:
  /// `dir` is created on first use; `request_cap` bounds every trace's
  /// length (the cap is part of the on-disk cache key).
  TraceCache(std::string dir, std::uint64_t request_cap);

  /// Returns the trace of a workload token (workload/token.h). Named
  /// traces and scenarios are generated once and cached on disk across
  /// processes; derived tokens are rebuilt from their parts. Thread-safe
  /// (per-trace granularity, see file comment). The reference stays
  /// valid for the cache's lifetime. Unknown names and an unusable
  /// cache directory exit(1): silently replaying an empty trace would
  /// report fake hit ratios.
  const Trace& Get(const std::string& name);

  const std::string& dir() const { return dir_; }
  std::uint64_t request_cap() const { return request_cap_; }

 private:
  struct Entry {
    std::once_flag once;
    std::unique_ptr<const Trace> trace;
  };

  void Fill(const std::string& name, Entry& entry);

  std::string dir_;
  std::uint64_t request_cap_;
  std::once_flag cleanup_once_;  // stale-temp-file sweep, once per cache
  Mutex map_mutex_;  // guards the map structure only, never held
                     // across generation
  std::map<std::string, Entry> entries_ CLIC_GUARDED_BY(map_mutex_);
  // entries_ is node-based: entry addresses are stable, never erased,
  // so a reference obtained under the lock stays valid after release.
};

}  // namespace clic::sweep
