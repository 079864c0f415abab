// Parallel sweep engine: expands a declarative (trace × policy × CLIC
// variant × cache-size) grid — the shape of every figure and ablation
// in the paper's evaluation — into independent simulation points and
// executes them on a fixed-size thread pool. Traces are resolved once
// per distinct name and shared read-only; every point builds its own
// policy instance, so points share no mutable state and the result of a
// point is identical to running Simulate() sequentially. Result
// ordering is deterministic (grid expansion order) regardless of how
// the pool schedules work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/clic.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"

namespace clic::sweep {

/// One labelled CLIC configuration on a grid's variant axis.
struct ClicVariant {
  std::string label;  // comma-free; fills the variant column of its rows
  ClicOptions options;
};

/// Declarative grid. Expansion order is fixed — traces outermost, then
/// policies, then CLIC variants, then cache sizes — so a spec always
/// yields the same row order no matter how (or on how many threads) it
/// runs.
struct SweepSpec {
  std::vector<std::string> traces;
  std::vector<PolicyKind> policies;
  std::vector<std::size_t> cache_sizes;
  /// kClic expands once per variant; every other policy expands once
  /// and ignores them. The default is one unlabelled variant with the
  /// paper's Section 6.1 options (W=1e5, r=1, Noutq=5, metadata
  /// charged).
  std::vector<ClicVariant> variants = {ClicVariant{}};
};

struct SweepPoint {
  std::size_t index = 0;  // position in ExpandGrid order
  std::string trace;
  PolicyKind policy = PolicyKind::kLru;
  /// The CLIC variant; an empty label and default options on the
  /// points of other policies.
  std::string variant;
  ClicOptions clic;
  std::size_t cache_pages = 0;
};

struct SweepRow {
  SweepPoint point;
  SimResult result;
  double wall_seconds = 0.0;  // replay only; trace loading is excluded
};

std::vector<SweepPoint> ExpandGrid(const SweepSpec& spec);

/// A named grid: a paper figure, an ablation, or a scenario grid.
struct FigurePreset {
  std::string name;
  SweepSpec spec;
};

/// The one table of `clic_sweep --figure` presets, in help-text order:
/// Figures "6"-"11", the ablations "ablation" (Section 7 policies),
/// "window", "outqueue" and "tracker", and the scenario grids over
/// workload/scenario.h generators. Figures 10 and 11 are grids over
/// derived workload tokens (workload/token.h).
const std::vector<FigurePreset>& FigurePresets();

/// The preset grid named `figure`; nullopt for unknown names.
std::optional<SweepSpec> FigureSpec(const std::string& figure);

class SweepRunner {
 public:
  /// Resolves a trace name to a loaded trace. Must be callable
  /// concurrently (TraceCache::Get qualifies) and the returned
  /// references must outlive Run().
  using TraceProvider = std::function<const Trace&(const std::string&)>;

  /// `threads` is clamped to >= 1; 0 means "one worker".
  SweepRunner(TraceProvider provider, unsigned threads);

  /// Executes every grid point and returns rows in ExpandGrid order.
  std::vector<SweepRow> Run(const SweepSpec& spec) const;

  unsigned threads() const { return threads_; }

 private:
  TraceProvider provider_;
  unsigned threads_;
};

/// Appends `value` as %.17g — the one double format every emitter in
/// the repo uses, so equal doubles always print byte-identically (the
/// CI determinism diffs depend on it).
void AppendDouble(std::string* out, double value);

/// RFC-4180 field quoting: returns `value` unchanged when it contains
/// no comma, double quote, CR or LF; otherwise wraps it in double
/// quotes with embedded quotes doubled. Every CSV emitter in the repo
/// must pass free-form strings — trace and policy names — through this
/// (Row does) so a hostile name can never corrupt a row.
std::string CsvField(const std::string& value);

/// Minimal JSON string escaping: backslash, double quote, and control
/// characters (as \uXXXX). Same contract as CsvField, for JSON.
std::string JsonEscaped(const std::string& value);

/// `{"reads":..,"read_hits":..,"writes":..,"write_hits":..}`.
std::string StatsJson(const CacheStats& stats);

/// The one row writer: named fields in column order, printed as a CSV
/// header, a CSV row, or one JSON object whose keys follow the same
/// order. clic_sweep's rows and clic_serve's summary are each one field
/// list, so a column is added in one place.
class Row {
 public:
  Row& Text(const std::string& name, const std::string& value);
  Row& Count(const std::string& name, std::uint64_t value);
  Row& Real(const std::string& name, double value);  // %.17g
  Row& Flag(const std::string& name, bool value);    // 1/0, true/false
  /// reads, writes, read_hits, write_hits, read_hit_ratio and
  /// write_hit_ratio of `stats`.
  Row& Stats(const CacheStats& stats);
  /// per_client: `client=reads:read_hits:writes:write_hits;...` in
  /// client-id order in CSV, an object of StatsJson keyed by client id
  /// in JSON.
  Row& PerClient(const SimResult& result);
  /// A field only the JSON object carries; `json` is its value.
  Row& JsonOnly(const std::string& name, std::string json);

  std::string CsvHeader() const;
  std::string Csv() const;
  std::string Json() const;

 private:
  struct Field {
    std::string name;
    std::string csv;   // empty and skipped for a JSON-only field
    std::string json;
    bool in_csv = true;
  };
  Row& Add(const std::string& name, std::string csv, std::string json);
  /// `part` of every CSV field, comma-separated.
  std::string CsvJoin(std::string Field::*part) const;

  std::vector<Field> fields_;
};

/// The fields of one sweep row: trace, policy, variant, cache_pages,
/// requests, the hit counts and ratios, wall_seconds, per_client.
Row RowOf(const SweepRow& row);

}  // namespace clic::sweep
