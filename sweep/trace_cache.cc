#include "sweep/trace_cache.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <dirent.h>
#include <sys/stat.h>

#include "common/text_parse.h"
#include "sim/trace_io.h"
#include "sim/trace_ops.h"
#include "workload/scenario.h"
#include "workload/token.h"
#include "workload/trace_factory.h"

namespace clic::sweep {

std::uint64_t RequestCapFromEnv() {
  constexpr std::uint64_t kDefault = 2'000'000;  // full suite in minutes
  const char* env = std::getenv("CLIC_BENCH_REQUESTS");
  if (env == nullptr || *env == '\0') return kDefault;
  std::uint64_t value = 0;
  if (!parse::Unsigned(env, &value) || value == 0) {
    std::fprintf(stderr,
                 "CLIC_BENCH_REQUESTS='%s' is not a positive integer; "
                 "using default %llu\n",
                 env, static_cast<unsigned long long>(kDefault));
    return kDefault;
  }
  return value;
}

std::string CacheDirFromEnv() {
  if (const char* env = std::getenv("CLIC_TRACE_CACHE_DIR")) return env;
  return "clic_trace_cache";
}

// Collects `.tmp.` orphans left by crashed or killed savers (SaveTrace
// writes to unique `<path>.tmp.<pid>.<n>` names, so nothing overwrites
// them). The age threshold is the whole safety argument: an in-flight
// save from a live concurrent process is seconds old and must never be
// unlinked out from under its writer, so only files strictly older
// than `max_age_seconds` are touched.
std::size_t CollectStaleTempFiles(const std::string& dir,
                                  std::time_t max_age_seconds) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  const std::time_t now = std::time(nullptr);
  std::size_t removed = 0;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.find(".tmp.") == std::string::npos) continue;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && now - st.st_mtime > max_age_seconds &&
        std::remove(path.c_str()) == 0) {
      ++removed;
    }
  }
  ::closedir(d);
  return removed;
}

TraceCache::TraceCache(std::string dir, std::uint64_t request_cap)
    : dir_(std::move(dir)), request_cap_(request_cap) {}

const Trace& TraceCache::Get(const std::string& name) {
  Entry* entry = nullptr;
  {
    MutexLock lock(map_mutex_);
    entry = &entries_[name];
  }
  std::call_once(entry->once, [&] { Fill(name, *entry); });
  return *entry->trace;
}

void TraceCache::Fill(const std::string& name, Entry& entry) {
  std::string error;
  const std::optional<WorkloadToken> token = ResolveWorkloadToken(name, &error);
  if (!token) {
    std::fprintf(stderr, "TraceCache: unknown workload '%s': %s\n",
                 name.c_str(), error.c_str());
    std::exit(1);
  }
  // Derived tokens are rebuilt from their cached parts in memory: both
  // transformations are a single pass, cheaper than a disk round trip.
  // Neither is capped again, so an interleave of capped parts is as
  // long as its parts together.
  if (token->kind == WorkloadToken::Kind::kNoise) {
    const int types = token->noise_types;
    Trace noisy = InjectNoiseHints(Get(token->parts[0]), types, kNoiseDomain,
                                   kNoiseZipf, kNoiseSeedBase + types);
    noisy.name = name;
    entry.trace = std::make_unique<const Trace>(std::move(noisy));
    return;
  }
  if (token->kind == WorkloadToken::Kind::kInterleave) {
    std::vector<const Trace*> parts;
    for (const std::string& part : token->parts) parts.push_back(&Get(part));
    entry.trace = std::make_unique<const Trace>(Interleave(name, parts));
    return;
  }
  const bool named = token->kind == WorkloadToken::Kind::kNamed;
  const std::uint64_t target = std::min(token->length, request_cap_);

  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "TraceCache: mkdir('%s') failed: %s\n", dir_.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::call_once(cleanup_once_, [this] { CollectStaleTempFiles(dir_); });
  // Cache key = name + target length + generator version: any of the
  // three changing invalidates the cached file. Scenario files hash
  // unsafe spec characters out of the stem and carry the scenario
  // engine's own version counter.
  const std::string path =
      named ? dir_ + "/" + name + "_" + std::to_string(target) + "_g" +
                  std::to_string(kTraceGeneratorVersion) + ".trc"
            : dir_ + "/" + ScenarioCacheStem(name) + "_" +
                  std::to_string(target) + "_s" +
                  std::to_string(kScenarioGeneratorVersion) + ".trc";
  if (auto loaded = LoadTrace(path, name)) {
    entry.trace = std::make_unique<const Trace>(std::move(*loaded));
    return;
  }
  Trace generated = named ? MakeNamedTrace(name, target)
                          : MakeScenarioTrace(token->scenario, target);
  if (!SaveTrace(generated, path)) {
    std::fprintf(stderr,
                 "TraceCache: warning: could not cache trace to %s\n",
                 path.c_str());
  }
  entry.trace = std::make_unique<const Trace>(std::move(generated));
}

}  // namespace clic::sweep
