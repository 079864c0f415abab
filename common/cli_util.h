// Shared command-line parsing for the clic_* binaries (clic_sweep,
// clic_serve). The contract every flag parser here enforces: an
// unknown or malformed token fails fast with the offending token AND
// the valid alternatives printed to stderr, exit code 2 — never a
// silent skip, and never an abort deep inside trace resolution.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/text_parse.h"
#include "sim/policy_factory.h"
#include "workload/scenario.h"
#include "workload/token.h"
#include "workload/trace_factory.h"

namespace clic::cli {

[[noreturn]] inline void Die(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
  std::fprintf(stderr, "Run %s --help for usage.\n", prog);
  std::exit(2);
}

inline std::string KnownTraceNames() {
  std::string out;
  for (const NamedTraceInfo& info : NamedTraces()) {
    if (!out.empty()) out.append(", ");
    out.append(info.name);
  }
  return out;
}

inline std::string KnownScenarioNames() {
  std::string out;
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    if (!out.empty()) out.append(", ");
    out.append(preset.name);
  }
  return out;
}

/// Every token a workload flag accepts, for help text and error
/// messages alike: the named paper traces, the scenario presets, and a
/// reminder of the inline spec and derived-token grammar.
inline std::string KnownWorkloadNames() {
  return KnownTraceNames() + "; scenario presets: " + KnownScenarioNames() +
         "; an inline spec like 'zipf:pages=120000,theta=0.9'; or a "
         "derived token like 'DB2_C60~noise=2' or 'DB2_C60+DB2_C300'";
}

inline std::string KnownPolicyNames() {
  std::string out;
  for (PolicyKind kind : AllPolicies()) {
    if (!out.empty()) out.append(", ");
    out.append(PolicyName(kind));
  }
  return out;
}

/// Splits a comma-separated flag value. An empty token ("A,,B", a
/// leading/trailing comma, or an empty value) is an error, not a skip:
/// it is always a typo and silently dropping it would run a different
/// grid than the one the user asked for.
inline std::vector<std::string> SplitCsvFlag(const char* prog,
                                             const std::string& flag,
                                             const std::string& value) {
  std::vector<std::string> parts = parse::Split(value, ',');
  for (const std::string& part : parts) {
    if (part.empty()) {
      Die(prog, flag + "='" + value + "' contains an empty token");
    }
  }
  return parts;
}

/// The numeric flags follow common/text_parse.h's number rules: digits
/// only for integers, no sign or leading space for either.
inline std::uint64_t ParseU64(const char* prog, const std::string& flag,
                              const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse::Unsigned(value, &parsed) || parsed == 0) {
    Die(prog, flag + "='" + value + "' is not a positive integer");
  }
  return parsed;
}

/// ParseU64 for flags where zero is a meaningful value (e.g. --port=0
/// binds an ephemeral port).
inline std::uint64_t ParseU64AllowZero(const char* prog,
                                       const std::string& flag,
                                       const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse::Unsigned(value, &parsed)) {
    Die(prog, flag + "='" + value + "' is not a non-negative integer");
  }
  return parsed;
}

inline double ParseDouble(const char* prog, const std::string& flag,
                          const std::string& value) {
  double parsed = 0.0;
  if (!parse::Real(value, &parsed)) {
    Die(prog, flag + "='" + value + "' is not a finite non-negative number");
  }
  return parsed;
}

/// Validates a workload token (workload/token.h) with the resolver the
/// trace cache uses. Unknown or malformed tokens die with the offending
/// token, the parse error, and the full valid set — the one validation
/// every workload-accepting flag (`--traces`, `--trace`, `--workload`)
/// routes through.
inline void RequireKnownWorkload(const char* prog, const std::string& flag,
                                 const std::string& name) {
  std::string error;
  if (ResolveWorkloadToken(name, &error)) return;
  Die(prog, flag + ": unknown workload '" + name + "' (" + error +
                "; valid traces: " + KnownWorkloadNames() + ")");
}

/// Validates the adaptive-window option group (core/clic.h) after all
/// flags are parsed: the churn threshold is a rank similarity in
/// [0, 1], and the resolved floor/ceiling pair must not be inverted
/// (0 means the ClicPolicy defaults — floor window/16, ceiling window).
/// Shared by clic_sweep and clic_serve so both reject the same
/// combinations with the same wording.
inline void RequireValidAdaptiveWindow(const char* prog,
                                       const ClicOptions& clic) {
  if (clic.churn_threshold < 0.0 || clic.churn_threshold > 1.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", clic.churn_threshold);
    Die(prog, std::string("--churn-threshold='") + buf +
                  "' is out of range (the rank similarity lives in [0, 1])");
  }
  const std::uint64_t floor_w =
      clic.min_window != 0 ? clic.min_window
                           : std::max<std::uint64_t>(1, clic.window / 16);
  const std::uint64_t ceil_w =
      clic.max_window != 0 ? clic.max_window : clic.window;
  if (floor_w > ceil_w) {
    Die(prog,
        "--min-window=" + std::to_string(floor_w) +
            (clic.min_window == 0 ? " (defaulted to window/16)" : "") +
            " exceeds --max-window=" + std::to_string(ceil_w) +
            (clic.max_window == 0 ? " (defaulted to the window)" : "") +
            " (need min-window <= max-window)");
  }
}

/// The help lines of the ten CLIC flags ClicFlags parses, for both
/// tools' --help.
inline constexpr char kClicFlagsHelp[] =
    "  --window=W --decay=R --outqueue=N --no-charge-metadata\n"
    "  --tracker=exact|space_saving|lossy_counting --top-k=K\n"
    "  --adaptive-window  churn-triggered early window close (see\n"
    "                     DESIGN.md \"Adaptive windowing\")\n"
    "  --churn-threshold=S  early-close rank-similarity trigger in "
    "[0, 1]\n"
    "  --min-window=N --max-window=N  effective-window bounds\n"
    "                     (defaults: window/16 and window)\n";

/// The CLIC flags of a command line, kept as overrides in command-line
/// order. clic_serve applies them to its one ClicOptions and clic_sweep
/// to every variant of its grid, so an explicit flag beats a preset's
/// options wherever it appears.
class ClicFlags {
 public:
  /// Records `arg` when it is one of the ten CLIC flags and returns
  /// true; returns false for any other argument. A malformed value dies
  /// naming the flag and the valid alternatives.
  bool Parse(const char* prog, const std::string& arg) {
    if (arg == "--no-charge-metadata") {
      return Add([](ClicOptions& o) { o.charge_metadata = false; });
    }
    if (arg == "--adaptive-window") {
      return Add([](ClicOptions& o) { o.adaptive_window = true; });
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "--window") {
      const std::uint64_t w = ParseU64(prog, key, value);
      return Add([w](ClicOptions& o) { o.window = w; });
    }
    if (key == "--min-window") {
      const std::uint64_t w = ParseU64(prog, key, value);
      return Add([w](ClicOptions& o) { o.min_window = w; });
    }
    if (key == "--max-window") {
      const std::uint64_t w = ParseU64(prog, key, value);
      return Add([w](ClicOptions& o) { o.max_window = w; });
    }
    if (key == "--churn-threshold") {
      const double t = ParseDouble(prog, key, value);
      return Add([t](ClicOptions& o) { o.churn_threshold = t; });
    }
    if (key == "--decay") {
      const double r = ParseDouble(prog, key, value);
      return Add([r](ClicOptions& o) { o.decay = r; });
    }
    if (key == "--outqueue") {
      const double n = ParseDouble(prog, key, value);
      return Add([n](ClicOptions& o) { o.outqueue_per_page = n; });
    }
    if (key == "--top-k") {
      const auto k = static_cast<std::size_t>(ParseU64(prog, key, value));
      return Add([k](ClicOptions& o) { o.top_k = k; });
    }
    if (key == "--tracker") {
      TrackerKind kind = TrackerKind::kExact;
      if (value == "space_saving") {
        kind = TrackerKind::kSpaceSaving;
      } else if (value == "lossy_counting") {
        kind = TrackerKind::kLossyCounting;
      } else if (value != "exact") {
        Die(prog, "unknown --tracker='" + value +
                      "' (valid: exact, space_saving, lossy_counting)");
      }
      return Add([kind](ClicOptions& o) { o.tracker = kind; });
    }
    return false;
  }

  void ApplyTo(ClicOptions& options) const {
    for (const auto& apply : overrides_) apply(options);
  }

 private:
  bool Add(std::function<void(ClicOptions&)> apply) {
    overrides_.push_back(std::move(apply));
    return true;
  }

  std::vector<std::function<void(ClicOptions&)>> overrides_;
};

/// The --output stream of a clic_* tool: the named file, or stdout
/// when the path is empty. It is opened before any work, so a bad path
/// fails in milliseconds rather than after the run.
class OutputFile {
 public:
  /// Exits 1, naming the path, when the file cannot be opened.
  OutputFile(const char* prog, std::string path)
      : prog_(prog), path_(std::move(path)) {
    if (path_.empty()) return;
    out_ = std::fopen(path_.c_str(), "w");
    if (out_ == nullptr) {
      std::fprintf(stderr, "%s: cannot open '%s': %s\n", prog_,
                   path_.c_str(), std::strerror(errno));
      std::exit(1);
    }
  }
  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  std::FILE* get() const { return out_; }

  /// Closes the file (flushes stdout) and checks every write: false,
  /// with the error on stderr, when any failed (e.g. ENOSPC), so the
  /// tool exits 1 instead of 0 with a truncated file. The flush on
  /// close can be the first call to see the error.
  bool Close() {
    bool ok = std::ferror(out_) == 0;
    ok = (out_ != stdout ? std::fclose(out_) : std::fflush(out_)) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "%s: error writing %s: %s\n", prog_,
                   path_.empty() ? "stdout" : path_.c_str(),
                   std::strerror(errno));
    }
    return ok;
  }

 private:
  const char* prog_;
  std::string path_;
  std::FILE* out_ = stdout;
};

/// Parses one policy token; unknown names die with the valid set.
inline PolicyKind RequirePolicy(const char* prog, const std::string& flag,
                                const std::string& name) {
  const std::optional<PolicyKind> kind = ParsePolicyKind(name);
  if (!kind) {
    Die(prog, flag + ": unknown policy '" + name + "' (valid policies: " +
                  KnownPolicyNames() + ")");
  }
  return *kind;
}

}  // namespace clic::cli
