// Workload scenario engine: declarative synthetic workloads beyond the
// paper's eight fixed traces. A WorkloadSpec is parsed from a compact
// text grammar
//
//   <kind>[:<key>=<value>[,<key>=<value>...]]
//
// (the clause of common/text_parse.h, whose number rules read every
// value) with kinds `zipf` (stationary, optionally rank-shifted,
// popularity), `scan` (pure cyclic sequential scan), `scan-mix` (Zipf
// working set polluted by periodic scan bursts), `phase` (working set
// that shifts abruptly or slides gradually), and `tenants` (N clients
// with per-client skew and weighted arrival interleave). Every generator
// pushes its logical access stream through the simulated client buffer
// (ServerTraceBuilder), so the emitted Trace carries the same
// second-tier miss/writeback shape and CLIC-consumable hint
// annotations as the named paper traces. Generation is deterministic:
// the same spec (including `seed=`) yields a byte-identical trace on
// every machine, and cache files embed kScenarioGeneratorVersion so a
// generator change never silently reuses stale .trc files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/text_parse.h"
#include "core/trace.h"

namespace clic {

/// Bump whenever any scenario generator's output changes for the same
/// spec. Scenario cache filenames embed it (see sweep/trace_cache.cc).
inline constexpr int kScenarioGeneratorVersion = 1;

enum class ScenarioKind : std::uint8_t {
  kZipf,     // stationary Zipf popularity, optional rank shift
  kScan,     // pure cyclic sequential scan
  kScanMix,  // Zipf hot set + periodic sequential scan bursts
  kPhase,    // phase-shifting working set (abrupt jump or gradual slide)
  kTenants,  // multi-tenant skew mix with weighted arrival interleave
};

/// A parsed scenario description. Defaults below are what an omitted
/// key means; `text` preserves the token the spec was resolved from
/// (preset name or the inline spec string) and becomes the Trace name.
struct WorkloadSpec {
  ScenarioKind kind = ScenarioKind::kZipf;
  std::string text;

  // Common keys (all kinds).
  std::uint64_t pages = 120'000;     // pages=    database size
  std::uint64_t requests = 600'000;  // n=        server-trace length
  std::uint64_t seed = 1;            // seed=     RNG seed
  std::uint64_t buffer = 2'000;      // buffer=   client buffer pages
  double write = 0.10;               // write=    dirty probability

  // zipf / scan-mix / phase / tenants.
  double theta = 0.9;       // theta=  Zipf skew (0 = uniform)
  std::uint64_t shift = 0;  // shift=  rank->page rotation (zipf, scan-mix)

  // scan-mix.
  std::uint64_t scan_every = 40'000;  // scan-every= hot accesses per burst
  std::uint64_t scan_len = 60'000;    // scan-len=   pages per burst

  // phase.
  std::uint64_t phase_len = 150'000;  // phase-len= accesses per phase
  std::uint64_t hot_pages = 15'000;   // hot-pages= working-set size
  bool gradual = false;               // gradual=   1: slide, 0: jump

  // tenants.
  std::uint64_t tenants = 4;  // tenants= client count
};

/// Named scenario presets — the scenario analogue of NamedTraces().
/// Preset names are valid workload tokens everywhere a named trace is
/// (clic_sweep --traces, clic_serve --trace/--workload, TraceCache).
struct ScenarioPreset {
  const char* name;
  const char* spec;   // the inline spec the name expands to
  const char* blurb;  // one-line description for --list / docs
};

const std::vector<ScenarioPreset>& ScenarioPresets();

/// The spec grammar's key table, shared by every kind
/// (common/text_parse.h): `write` and `theta` take F, `gradual` 0 or 1,
/// every other key N.
const std::vector<parse::Key<WorkloadSpec>>& ScenarioKeys();

/// Parses an inline spec string. Unknown kinds/keys, malformed values,
/// and out-of-range parameters (e.g. buffer >= pages, which could never
/// miss and would starve generation) yield nullopt with a one-line
/// reason in *error. Never exits: CLIs wrap this in their own Die().
std::optional<WorkloadSpec> ParseWorkloadSpec(const std::string& text,
                                              std::string* error = nullptr);

/// Resolves a workload token: a ScenarioPresets() name, else an inline
/// spec via ParseWorkloadSpec. The returned spec's `text` is the token
/// as given, so the generated Trace's name round-trips through .trc
/// caching and CSV/JSON rows.
std::optional<WorkloadSpec> ResolveWorkload(const std::string& name_or_spec,
                                            std::string* error = nullptr);

/// Filename-safe cache stem for a workload token: the token itself when
/// it is already safe (preset names), else "scn" + 16 hex digits of its
/// FNV-1a hash (inline specs contain '=', ',' and ':').
std::string ScenarioCacheStem(const std::string& name_or_spec);

/// Generates the scenario trace, capped at `target_requests` when
/// non-zero and smaller than the spec's `n`. Deterministic in the spec
/// alone. The spec must have come from ParseWorkloadSpec/
/// ResolveWorkload (parameters validated there).
Trace MakeScenarioTrace(const WorkloadSpec& spec,
                        std::uint64_t target_requests = 0);

}  // namespace clic
