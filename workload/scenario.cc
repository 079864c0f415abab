#include "workload/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "workload/server_trace_builder.h"

namespace clic {
namespace {

// Hint attribute layout shared by every scenario generator:
// {region, access_type}. `region` is a popularity band (log2 of the
// Zipf rank) for skewed accesses, a spatial region for phase working
// sets, and kScanRegion for sequential scans; access_type separates
// lookups from scans. This is the client knowledge the paper's hints
// model — the client can tell the server what kind of access it is
// making — and it is exactly what lets CLIC rank scan-polluted traffic
// below the hot set.
enum AccessType : std::uint32_t { kLookup = 0, kScanAccess = 1 };
inline constexpr std::uint32_t kScanRegion = 255;
inline constexpr std::uint32_t kMaxRegions = 256;

// Generation backstop: a pathological spec whose client buffers absorb
// nearly every logical access would otherwise loop forever waiting for
// misses. Parse-time validation rules the common cases out (buffer <
// pages, and < pages/tenants); this bounds the rest — generation stops
// after this many logical accesses per emitted request and the trace
// comes out short, with a loud warning, instead of hanging.
inline constexpr std::uint64_t kMaxLogicalPerRequest = 1'000;

std::uint64_t SeedOf(const WorkloadSpec& spec) {
  Fnv1a h;
  h.MixScalar(static_cast<std::uint32_t>(spec.kind));
  h.MixScalar(spec.seed);
  return h.value() ^ 0x5CE7A410C11Cull;  // scenario-engine seed salt
}

/// Popularity band of a Zipf rank: 0 for the ~64 hottest pages, then
/// one band per rank octave, capped at 15. Coarse enough that bands
/// gather solid per-window statistics, fine enough that CLIC can rank
/// the head of the distribution above the tail.
std::uint32_t RankBand(std::uint64_t rank) {
  std::uint64_t r = rank >> 6;
  std::uint32_t band = 0;
  while (r != 0 && band < 15) {
    ++band;
    r >>= 1;
  }
  return band;
}

/// Lazily interns the (region, access_type) hint sets of one client.
/// First-seen interning order is a deterministic function of the access
/// stream, which keeps regenerated traces byte-identical.
class ScenarioHints {
 public:
  ScenarioHints(Trace* trace, ClientId client)
      : trace_(trace), client_(client), ids_(kMaxRegions * 2, kInvalidIndex) {}

  HintSetId Get(std::uint32_t region, AccessType access) {
    const std::size_t slot = region * 2 + access;
    if (ids_[slot] == kInvalidIndex) {
      HintVector v;
      v.client = client_;
      v.attrs = {region, static_cast<std::uint32_t>(access)};
      ids_[slot] = trace_->hints->Intern(std::move(v));
    }
    return ids_[slot];
  }

 private:
  Trace* trace_;
  ClientId client_;
  std::vector<HintSetId> ids_;
};

// ---- generators ------------------------------------------------------------

/// One Zipf-popularity lookup, shared by the zipf and scan-mix
/// generators so their hot-set semantics (rank draw, `shift` rotation
/// of the rank->page mapping, band hinting, dirty probability) can
/// never drift apart — "scan-pollute is zipf-hot plus bursts" must
/// stay literally true.
void ZipfAccess(const WorkloadSpec& spec, Rng& rng, ZipfGenerator& zipf,
                ScenarioHints& hints, ServerTraceBuilder& b) {
  const std::uint64_t rank = zipf(rng);
  // `shift` rotates the rank->page mapping: the same popularity curve
  // lands on a different page set, which is what makes `zipf-shifted`
  // a cold-cache restart of `zipf-hot` rather than a new distribution.
  const PageId page = static_cast<PageId>((rank + spec.shift) % spec.pages);
  b.LogicalAccess(page, hints.Get(RankBand(rank), kLookup),
                  rng.Chance(spec.write));
}

void GenZipf(const WorkloadSpec& spec, std::uint64_t target,
             std::uint64_t budget, Trace* trace) {
  Rng rng(SeedOf(spec));
  ZipfGenerator zipf(spec.pages, spec.theta);
  ServerTraceBuilder b(trace, spec.buffer, target);
  ScenarioHints hints(trace, 0);
  while (!b.Done() && b.logical_accesses() < budget) {
    ZipfAccess(spec, rng, zipf, hints, b);
  }
}

void GenScan(const WorkloadSpec& spec, std::uint64_t target,
             std::uint64_t budget, Trace* trace) {
  ServerTraceBuilder b(trace, spec.buffer, target);
  ScenarioHints hints(trace, 0);
  const HintSetId scan_hint = hints.Get(kScanRegion, kScanAccess);
  PageId cursor = 0;
  while (!b.Done() && b.logical_accesses() < budget) {
    b.LogicalAccess(cursor, scan_hint, /*dirty=*/false);
    cursor = cursor + 1 == spec.pages ? 0 : cursor + 1;
  }
}

void GenScanMix(const WorkloadSpec& spec, std::uint64_t target,
                std::uint64_t budget, Trace* trace) {
  Rng rng(SeedOf(spec));
  ZipfGenerator zipf(spec.pages, spec.theta);
  ServerTraceBuilder b(trace, spec.buffer, target);
  ScenarioHints hints(trace, 0);
  PageId cursor = 0;  // scan position persists across bursts (cyclic)
  while (!b.Done() && b.logical_accesses() < budget) {
    for (std::uint64_t i = 0;
         i < spec.scan_every && !b.Done() && b.logical_accesses() < budget;
         ++i) {
      ZipfAccess(spec, rng, zipf, hints, b);
    }
    const HintSetId scan_hint = hints.Get(kScanRegion, kScanAccess);
    for (std::uint64_t i = 0;
         i < spec.scan_len && !b.Done() && b.logical_accesses() < budget;
         ++i) {
      b.LogicalAccess(cursor, scan_hint, /*dirty=*/false);
      cursor = cursor + 1 == spec.pages ? 0 : cursor + 1;
    }
  }
}

void GenPhase(const WorkloadSpec& spec, std::uint64_t target,
              std::uint64_t budget, Trace* trace) {
  Rng rng(SeedOf(spec));
  const std::uint64_t window = spec.hot_pages;  // validated <= pages
  ZipfGenerator zipf(window, spec.theta);
  ServerTraceBuilder b(trace, spec.buffer, target);
  ScenarioHints hints(trace, 0);
  // Hints name *spatial* regions (page / region_size), not phases, so a
  // region's statistics persist when the working set returns to it.
  const std::uint64_t region_size = std::max<std::uint64_t>(1, spec.pages / 32);
  // Abrupt mode: the working-set offset jumps by a full window every
  // phase_len logical accesses, cycling through floor(pages / window)
  // disjoint positions. Gradual mode: the offset slides one page every
  // step_every accesses, covering one full window per phase_len.
  const std::uint64_t positions =
      std::max<std::uint64_t>(1, spec.pages / window);
  const std::uint64_t step_every =
      std::max<std::uint64_t>(1, spec.phase_len / window);
  const std::uint64_t slide_span = spec.pages - window + 1;
  while (!b.Done() && b.logical_accesses() < budget) {
    const std::uint64_t logical = b.logical_accesses();
    const std::uint64_t offset =
        spec.gradual
            ? (logical / step_every) % slide_span
            : ((logical / spec.phase_len) % positions) * window;
    const std::uint64_t rank = zipf(rng);
    const PageId page = static_cast<PageId>(offset + rank);
    const std::uint32_t region = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(page / region_size, kScanRegion - 1));
    b.LogicalAccess(page, hints.Get(region, kLookup), rng.Chance(spec.write));
  }
}

void GenTenants(const WorkloadSpec& spec, std::uint64_t target,
                std::uint64_t budget, Trace* trace) {
  Rng rng(SeedOf(spec));
  const std::size_t tenants = static_cast<std::size_t>(spec.tenants);
  const std::uint64_t region =
      std::max<std::uint64_t>(1, spec.pages / tenants);
  std::vector<ServerTraceBuilder> builders;
  std::vector<ScenarioHints> hints;
  std::vector<ZipfGenerator> zipf;
  std::vector<double> cumulative;
  builders.reserve(tenants);
  hints.reserve(tenants);
  zipf.reserve(tenants);
  cumulative.reserve(tenants);
  double total = 0.0;
  for (std::size_t t = 0; t < tenants; ++t) {
    builders.emplace_back(trace, spec.buffer, target,
                          static_cast<ClientId>(t));
    hints.emplace_back(trace, static_cast<ClientId>(t));
    // Per-tenant skew fans out from the spec's theta: tenant 0 is the
    // most skewed, later tenants progressively flatter (toward uniform).
    zipf.emplace_back(region,
                      std::max(0.0, spec.theta - 0.15 * static_cast<double>(t)));
    // Harmonic arrival weights: tenant t arrives with weight 1/(t+1),
    // so the mix is dominated by the first tenants but every tenant
    // stays active.
    total += 1.0 / static_cast<double>(t + 1);
    cumulative.push_back(total);
  }
  std::uint64_t steps = 0;
  while (trace->requests.size() < target && steps < budget) {
    ++steps;
    const double x = rng.NextDouble() * total;
    std::size_t t = 0;
    while (t + 1 < tenants && x >= cumulative[t]) ++t;
    const std::uint64_t rank = zipf[t](rng);
    const PageId page = static_cast<PageId>(t * region + rank);
    builders[t].LogicalAccess(page, hints[t].Get(RankBand(rank), kLookup),
                              rng.Chance(spec.write));
  }
}

// ---- spec parsing ----------------------------------------------------------

struct KindName {
  const char* name;
  ScenarioKind kind;
};

constexpr KindName kKinds[] = {{"zipf", ScenarioKind::kZipf},
                               {"scan", ScenarioKind::kScan},
                               {"scan-mix", ScenarioKind::kScanMix},
                               {"phase", ScenarioKind::kPhase},
                               {"tenants", ScenarioKind::kTenants}};

}  // namespace

const std::vector<ScenarioPreset>& ScenarioPresets() {
  static const std::vector<ScenarioPreset> presets = {
      {"zipf-hot", "zipf:pages=120000,theta=0.9,buffer=2000,n=600000",
       "stationary Zipf(0.9) popularity over 120k pages"},
      {"zipf-shifted",
       "zipf:pages=120000,theta=0.9,shift=60000,buffer=2000,n=600000",
       "same Zipf skew with the rank->page mapping rotated by 60k pages"},
      {"seq-scan", "scan:pages=120000,buffer=2000,n=400000",
       "pure cyclic sequential scan (every server policy should miss)"},
      {"scan-pollute",
       "scan-mix:pages=120000,theta=0.9,scan-every=40000,scan-len=60000,"
       "buffer=2000,n=800000",
       "Zipf hot set polluted by periodic 60k-page scan bursts"},
      {"phase-abrupt",
       "phase:pages=120000,hot-pages=15000,phase-len=150000,buffer=2000,"
       "n=800000",
       "15k-page working set jumping to a disjoint region every 150k "
       "accesses"},
      {"phase-gradual",
       "phase:pages=120000,hot-pages=15000,phase-len=150000,gradual=1,"
       "buffer=2000,n=800000",
       "15k-page working set sliding one window per 150k accesses"},
      {"tenant-mix4",
       "tenants:pages=160000,tenants=4,theta=0.95,buffer=1500,n=800000",
       "4 tenants, per-tenant skew 0.95/0.80/0.65/0.50, harmonic arrivals"},
  };
  return presets;
}

const std::vector<parse::Key<WorkloadSpec>>& ScenarioKeys() {
  static const std::vector<parse::Key<WorkloadSpec>> keys = {
      parse::UnsignedKey("pages", &WorkloadSpec::pages),
      parse::UnsignedKey("n", &WorkloadSpec::requests),
      parse::UnsignedKey("seed", &WorkloadSpec::seed),
      parse::UnsignedKey("buffer", &WorkloadSpec::buffer),
      parse::RealKey("write", &WorkloadSpec::write),
      parse::RealKey("theta", &WorkloadSpec::theta),
      parse::UnsignedKey("shift", &WorkloadSpec::shift),
      parse::UnsignedKey("scan-every", &WorkloadSpec::scan_every),
      parse::UnsignedKey("scan-len", &WorkloadSpec::scan_len),
      parse::UnsignedKey("phase-len", &WorkloadSpec::phase_len),
      parse::UnsignedKey("hot-pages", &WorkloadSpec::hot_pages),
      parse::UnsignedKey("gradual", &WorkloadSpec::gradual),
      parse::UnsignedKey("tenants", &WorkloadSpec::tenants),
  };
  return keys;
}

std::optional<WorkloadSpec> ParseWorkloadSpec(const std::string& text,
                                              std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<WorkloadSpec> {
    if (error) *error = why;
    return std::nullopt;
  };

  const std::size_t colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  const auto found =
      std::find_if(std::begin(kKinds), std::end(kKinds),
                   [&](const KindName& k) { return kind == k.name; });
  if (found == std::end(kKinds)) {
    std::string kinds;
    for (const KindName& k : kKinds) {
      kinds.append(kinds.empty() ? "" : ", ").append(k.name);
    }
    return fail("unknown scenario kind '" + kind + "' (valid kinds: " + kinds +
                ")");
  }
  WorkloadSpec spec;
  spec.kind = found->kind;
  spec.text = text;
  std::string why;
  if (colon != std::string::npos &&
      !parse::KeyValues(text.substr(colon + 1), ScenarioKeys(), &spec, &why)) {
    return fail(why + " in '" + text + "' (valid keys: " +
                parse::KeyList(ScenarioKeys(), ", ") + ")");
  }

  // Range validation: every limit here protects an invariant of the
  // generators or the flat direct-indexed PageTable downstream.
  if (spec.pages < 16 || spec.pages > 16'777'216) {
    return fail("pages=" + std::to_string(spec.pages) +
                " out of range [16, 16777216]");
  }
  if (spec.requests < 1 || spec.requests > 100'000'000) {
    return fail("n=" + std::to_string(spec.requests) +
                " out of range [1, 100000000]");
  }
  if (spec.write < 0.0 || spec.write > 1.0) {
    return fail("write must be a probability in [0, 1]");
  }
  if (spec.theta < 0.0 || spec.theta > 1.2) {
    return fail("theta out of range [0, 1.2]");
  }
  // Kind-specific parameters are validated only for the kind that
  // reads them, so e.g. a small `pages` never trips over the default
  // `hot-pages` of a generator that is not even selected.
  if (spec.shift >= spec.pages) {
    return fail("shift must be smaller than pages");
  }
  if (spec.kind == ScenarioKind::kScanMix &&
      (spec.scan_every < 1 || spec.scan_len < 1)) {
    return fail("scan-every and scan-len must be >= 1");
  }
  if (spec.kind == ScenarioKind::kPhase) {
    if (spec.phase_len < 1) {
      return fail("phase-len must be >= 1");
    }
    if (spec.hot_pages < 1 || spec.hot_pages > spec.pages) {
      return fail("hot-pages out of range [1, pages]");
    }
  }
  if (spec.kind == ScenarioKind::kTenants &&
      (spec.tenants < 1 || spec.tenants > 256)) {
    return fail("tenants out of range [1, 256]");
  }
  // A client buffer that covers its whole page domain stops missing
  // after one pass, so the server trace would starve (the generation
  // budget would then truncate it).
  const std::uint64_t domain = spec.kind == ScenarioKind::kTenants
                                   ? spec.pages / spec.tenants
                                   : spec.pages;
  if (spec.buffer >= domain) {
    return fail("buffer=" + std::to_string(spec.buffer) +
                " must be smaller than the per-client page domain (" +
                std::to_string(domain) +
                "): a buffer covering the whole domain never misses");
  }
  return spec;
}

std::optional<WorkloadSpec> ResolveWorkload(const std::string& name_or_spec,
                                            std::string* error) {
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    if (name_or_spec != preset.name) continue;
    std::optional<WorkloadSpec> spec = ParseWorkloadSpec(preset.spec, error);
    if (!spec) {
      // A preset that fails its own parser is a programming error; the
      // scenario tests pin every preset, so this cannot ship.
      std::fprintf(stderr, "ResolveWorkload: preset '%s' is invalid: %s\n",
                   preset.name, error ? error->c_str() : "");
      std::abort();
    }
    spec->text = name_or_spec;
    return spec;
  }
  return ParseWorkloadSpec(name_or_spec, error);
}

std::string ScenarioCacheStem(const std::string& name_or_spec) {
  bool safe = !name_or_spec.empty();
  for (char c : name_or_spec) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    safe = safe && ok;
  }
  if (safe) return name_or_spec;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "scn%016llx",
                static_cast<unsigned long long>(Fnv1aHash(name_or_spec)));
  return buf;
}

Trace MakeScenarioTrace(const WorkloadSpec& spec,
                        std::uint64_t target_requests) {
  std::uint64_t target = spec.requests;
  if (target_requests != 0 && target_requests < target) {
    target = target_requests;
  }
  Trace trace;
  trace.name = spec.text;
  trace.requests.reserve(target + 8);
  const std::uint64_t budget = kMaxLogicalPerRequest * target + 1'000'000;
  switch (spec.kind) {
    case ScenarioKind::kZipf:
      GenZipf(spec, target, budget, &trace);
      break;
    case ScenarioKind::kScan:
      GenScan(spec, target, budget, &trace);
      break;
    case ScenarioKind::kScanMix:
      GenScanMix(spec, target, budget, &trace);
      break;
    case ScenarioKind::kPhase:
      GenPhase(spec, target, budget, &trace);
      break;
    case ScenarioKind::kTenants:
      GenTenants(spec, target, budget, &trace);
      break;
  }
  if (trace.requests.size() < target) {
    std::fprintf(stderr,
                 "MakeScenarioTrace: '%s' starved (%zu of %llu requests "
                 "emitted before the logical-access budget ran out)\n",
                 spec.text.c_str(), trace.requests.size(),
                 static_cast<unsigned long long>(target));
  }
  if (trace.requests.size() > target) {
    trace.requests.resize(target);
  }
  trace.CacheMaxClient();
  return trace;
}

}  // namespace clic
