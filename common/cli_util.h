// Shared command-line parsing for the clic_* binaries (clic_sweep,
// clic_serve). Each tool's flags are one table of `Flag` rows: the
// name, the rule its value follows (common/text_parse.h), the bound,
// where the value goes, the help line and the group. One loop
// (`ParseArgs`) reads every command line against its table and `Help`
// prints --help from it. An unknown, malformed, wrongly formed or
// repeated flag fails with the offending token AND the valid
// alternatives in a one-line reason, which the tool prints to stderr
// with exit code 2 — never a silent skip, and never an abort deep
// inside trace resolution.
#pragma once

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/text_parse.h"
#include "sim/policy_factory.h"
#include "workload/scenario.h"
#include "workload/token.h"
#include "workload/trace_factory.h"

namespace clic::cli {

/// What a tool prints to stderr for a rejected command line.
inline std::string ErrorText(const char* prog, const std::string& message) {
  return std::string(prog) + ": " + message + "\nRun " + prog +
         " --help for usage.\n";
}

[[noreturn]] inline void Die(const char* prog, const std::string& message) {
  std::fputs(ErrorText(prog, message).c_str(), stderr);
  std::exit(2);
}

inline std::string Join(const std::vector<std::string>& items,
                        const char* sep) {
  std::string out;
  for (const std::string& item : items) {
    out += (out.empty() ? "" : sep) + item;
  }
  return out;
}

/// Every token a workload flag accepts, for error messages: the named
/// paper traces, the scenario presets, and a reminder of the inline
/// spec and derived-token grammar.
inline std::string KnownWorkloadNames() {
  std::vector<std::string> traces, presets;
  for (const NamedTraceInfo& info : NamedTraces()) traces.push_back(info.name);
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    presets.push_back(preset.name);
  }
  return Join(traces, ", ") + "; scenario presets: " + Join(presets, ", ") +
         "; an inline spec like 'zipf:pages=120000,theta=0.9'; or a "
         "derived token like 'DB2_C60~noise=2' or 'DB2_C60+DB2_C300'";
}

/// Reads `value` by common/text_parse.h's N, zero allowed, for a flag
/// parsed outside the flag tables; dies (exit 2) naming it otherwise.
inline std::uint64_t ParseU64AllowZero(const char* prog,
                                       const std::string& flag,
                                       const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse::Unsigned(value, &parsed)) {
    Die(prog, flag + "='" + value + "' is not a non-negative integer");
  }
  return parsed;
}

/// The same by common/text_parse.h's F.
inline double ParseDouble(const char* prog, const std::string& flag,
                          const std::string& value) {
  double parsed = 0.0;
  if (!parse::Real(value, &parsed)) {
    Die(prog, flag + "='" + value + "' is not a finite non-negative number");
  }
  return parsed;
}

// ---- the flag table --------------------------------------------------------

/// The rule a flag's value follows: none for a switch; N (>= 1 for kN)
/// and F as in common/text_parse.h; one of the row's choices; a workload
/// token (workload/token.h); or any text the row's store accepts.
enum class Form { kSwitch, kN, kNOrZero, kF, kOneOf, kWorkload, kText };

/// One row of a tool's flag table; its group is the FlagGroup holding it.
struct Flag {
  std::string name;     // a switch and a valued row may share it
  Form form;
  std::string metavar;  // --name=METAVAR in --help
  std::string help;     // one line
  std::uint64_t bound;  // the largest N
  bool list;  // ','-separated items (SplitWorkloadList for tokens)
  /// Stores one value or list item that passed the rule; returns "" or
  /// why it still rejects it (a one-of names its choices).
  std::function<std::string(const std::string& value)> store;
};

/// A --help heading and its rows, in order.
struct FlagGroup {
  std::string heading;
  std::vector<Flag> flags;
};
using FlagTable = std::vector<FlagGroup>;

/// The flags a command line gave, each with its value text.
using Given = std::map<std::string, std::string>;

/// Stores a checked value into a field: text as given, F, or N (a field
/// narrower than 64 bits needs a row bound it holds); a list appends.
inline void Put(std::string* field, const std::string& text) { *field = text; }
inline void Put(double* field, const std::string& text) {
  parse::Real(text, field);
}
template <typename U>
void Put(U* field, const std::string& text) {
  std::uint64_t n = 0;
  parse::Unsigned(text, &n);
  *field = static_cast<U>(n);
}
template <typename T>
void Put(std::vector<T>* list, const std::string& text) {
  Put(&list->emplace_back(), text);
}

template <typename D>
constexpr bool kIsList = false;
template <typename T>
constexpr bool kIsList<std::vector<T>> = true;

constexpr std::uint64_t kNoBound = ~std::uint64_t{0};

/// A kN, kNOrZero, kF, kWorkload or kText row storing into *dest.
template <typename D>
Flag Row(std::string name, Form form, std::string metavar, D* dest,
         std::string help, std::uint64_t bound = kNoBound) {
  if constexpr (std::is_integral_v<D>) {
    assert(bound <= std::numeric_limits<D>::max());
  }
  return {std::move(name), form, std::move(metavar), std::move(help), bound,
          kIsList<D>, [dest](const std::string& value) {
            Put(dest, value);
            return std::string();
          }};
}

/// A kText row whose text `read` stores or rejects with a reason.
inline Flag Row(std::string name, std::string metavar,
                std::function<std::string(const std::string&)> read,
                std::string help) {
  return {std::move(name), Form::kText, std::move(metavar), std::move(help),
          kNoBound, false, std::move(read)};
}

/// A switch storing `value` into *field.
template <typename T>
Flag Switch(std::string name, T* field, T value, std::string help) {
  return {std::move(name), Form::kSwitch, "", std::move(help), kNoBound,
          false, [field, value](const std::string&) {
            *field = value;
            return std::string();
          }};
}

inline std::string Lower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

/// A kOneOf row storing the value paired with the choice given, matched
/// case-blind when `fold_case`. An empty metavar prints "a|b|c".
template <typename D, typename T = D>
Flag OneOf(std::string name, std::string metavar,
           std::vector<std::pair<std::string, T>> choices, D* dest,
           std::string help, bool fold_case = false) {
  std::vector<std::string> names;
  for (const auto& choice : choices) names.push_back(choice.first);
  if (metavar.empty()) metavar = Join(names, "|");
  const auto store = [=](const std::string& value) {
    for (const auto& [text, choice] : choices) {
      if (fold_case ? Lower(text) != Lower(value) : text != value) continue;
      if constexpr (kIsList<D>) {
        dest->push_back(choice);
      } else {
        *dest = choice;
      }
      return std::string();
    }
    return "unknown " + name + "='" + value + "' (valid: " +
           Join(names, ", ") + ")";
  };
  return {name, Form::kOneOf, std::move(metavar), std::move(help), kNoBound,
          kIsList<D>, store};
}

/// Every policy, by the names PolicyName prints.
inline std::vector<std::pair<std::string, PolicyKind>> PolicyChoices() {
  std::vector<std::pair<std::string, PolicyKind>> choices;
  for (PolicyKind kind : AllPolicies()) {
    choices.emplace_back(PolicyName(kind), kind);
  }
  return choices;
}

/// Checks one value or list item against the row's rule and bound, then
/// stores it. Returns "" or a one-line reason naming the flag, the value
/// and the valid set.
inline std::string StoreItem(const Flag& flag, const std::string& text) {
  const std::string quoted = flag.name + "='" + text + "'";
  const bool zero_ok = flag.form == Form::kNOrZero;
  std::uint64_t n = 0;
  double f = 0.0;
  std::string error;
  if (flag.form == Form::kN || zero_ok) {
    if (!parse::Unsigned(text, &n) || (n == 0 && !zero_ok)) {
      return quoted + (zero_ok ? " is not a non-negative integer"
                               : " is not a positive integer");
    }
    if (n > flag.bound) {
      return quoted + " is out of range (" + (zero_ok ? "0" : "1") + ".." +
             std::to_string(flag.bound) + ")";
    }
  } else if (flag.form == Form::kF && !parse::Real(text, &f)) {
    return quoted + " is not a finite non-negative number";
  } else if (flag.form == Form::kWorkload &&
             !ResolveWorkloadToken(text, &error)) {
    return flag.name + ": unknown workload '" + text + "' (" + error +
           "; valid traces: " + KnownWorkloadNames() + ")";
  }
  return flag.store(text);
}

/// Checks and stores a flag's value text: the value, or each list item.
inline std::string Store(const Flag& flag, const std::string& text) {
  if (!flag.list) return StoreItem(flag, text);
  std::string error;
  std::vector<std::string> items;
  if (!text.empty() && flag.form == Form::kWorkload) {
    const auto tokens = SplitWorkloadList(text, &error);
    if (!tokens) return flag.name + ": " + error;
    items = *tokens;
  } else if (!text.empty()) {
    // An empty item is a typo; dropping it would run another grid.
    items = parse::Split(text, ',');
    if (std::count(items.begin(), items.end(), "") > 0) {
      return flag.name + "='" + text + "' contains an empty token";
    }
  }
  for (const std::string& item : items) {
    error = StoreItem(flag, item);
    if (!error.empty()) return error;
  }
  return "";
}

/// What a command line asks a tool to do.
enum class Action { kRun, kHelp, kList, kReject };

/// Reads `args` (argv without the program name) against `table`, storing
/// each value and recording it in *given, up to a flag that sets
/// *action (--help, --list). Returns "" or the one-line reason the first
/// bad argument is rejected: an unknown flag, a switch given a value or
/// a valued flag given none, a flag given twice, or a value its row
/// rejects.
inline std::string ParseArgs(const FlagTable& table,
                             const std::vector<std::string>& args,
                             Given* given, const Action* action) {
  for (const std::string& arg : args) {
    if (*action != Action::kRun) break;
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const bool valued = eq != std::string::npos;
    const Flag* flag = nullptr;       // the row of this name and form
    const Flag* misformed = nullptr;  // a row of this name, other form
    for (const FlagGroup& group : table) {
      for (const Flag& row : group.flags) {
        if (row.name != name) continue;
        if ((row.form != Form::kSwitch) == valued) {
          flag = &row;
        } else {
          misformed = &row;
        }
      }
    }
    if (flag == nullptr && misformed == nullptr) {
      return arg.rfind("--", 0) == 0 ? "unrecognized flag '" + name + "'"
                                     : "unrecognized argument '" + arg + "'";
    }
    if (flag == nullptr) {
      return misformed->form == Form::kSwitch
                 ? name + " takes no value"
                 : name + " needs a value (" + name + "=" +
                       misformed->metavar + ")";
    }
    const std::string value = valued ? arg.substr(eq + 1) : "";
    if (!given->emplace(name, value).second) {
      return name + " given twice (give each flag once)";
    }
    const std::string error = Store(*flag, value);
    if (!error.empty()) return error;
  }
  return "";
}

/// A cross-flag rule: a command line that breaks it is rejected with
/// its message.
struct Rule {
  bool broken;
  std::string message;
};

/// The message of the first broken rule, in order; "" when all hold.
inline std::string FirstBroken(const std::vector<Rule>& rules) {
  for (const Rule& rule : rules) {
    if (rule.broken) return rule.message;
  }
  return "";
}

/// The --help text of a table: `usage`, then each group's heading and
/// rows, one help line beside each flag (below a long one).
inline std::string Help(const std::string& usage, const FlagTable& table) {
  std::string out = usage + "\n";
  for (const FlagGroup& group : table) {
    out += "\n" + group.heading + ":\n";
    for (const Flag& flag : group.flags) {
      std::string line = "  " + flag.name;
      if (flag.form != Form::kSwitch) line += "=" + flag.metavar;
      line += line.size() + 2 <= 24 ? std::string(24 - line.size(), ' ')
                                    : "\n" + std::string(24, ' ');
      out += line + flag.help + "\n";
    }
  }
  return out;
}

/// A tool's parsed command line: the options to run with, the list to
/// print, or `text` to print: the help, or the one-line reason the line
/// is rejected. Only a tool's main prints and exits.
template <typename Options>
struct Parsed {
  Action action = Action::kRun;
  Options options;
  std::string text;  // kHelp, kReject
};

/// The ten CLIC rows both tools share, storing into *clic. clic_serve
/// points them at its one ClicOptions; clic_sweep replays the values
/// given into every variant of its grid after the preset.
inline std::vector<Flag> ClicRows(ClicOptions* clic) {
  using TK = TrackerKind;
  return {
      Row("--window", Form::kN, "W", &clic->window,
          "evaluation window, in requests (default 100000)"),
      Row("--decay", Form::kF, "R", &clic->decay,
          "history blend r in [0, 1] (default 1, the full history)"),
      Row("--outqueue", Form::kF, "F", &clic->outqueue_per_page,
          "outqueue entries per cache page in [0, 100] (default 5)"),
      Switch("--no-charge-metadata", &clic->charge_metadata, false,
             "do not charge CLIC's metadata against the cache"),
      OneOf("--tracker", "",
            {{"exact", TK::kExact},
             {"space_saving", TK::kSpaceSaving},
             {"lossy_counting", TK::kLossyCounting}},
            &clic->tracker, "hint-set tracker (default exact)"),
      Row("--top-k", Form::kN, "K", &clic->top_k,
          "approximate-tracker hint sets (1..1000000, default 100)"),
      Switch("--adaptive-window", &clic->adaptive_window, true,
             "close windows early on churn (DESIGN.md)"),
      Row("--churn-threshold", Form::kF, "S", &clic->churn_threshold,
          "early-close similarity trigger in [0, 1] (default 0.5)"),
      Row("--min-window", Form::kN, "N", &clic->min_window,
          "effective-window floor (default window/16)"),
      Row("--max-window", Form::kN, "N", &clic->max_window,
          "effective-window ceiling (default window)"),
  };
}

/// "--flag='value' is out of range (range)", the value as %g prints it.
inline std::string OutOfRange(const char* flag, double value,
                              const char* range) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return std::string(flag) + "='" + buf + "' is out of range (" + range +
         ")";
}

/// The CLIC options (core/clic.h) after every flag and preset is
/// applied. The history blend r is a weight in [0, 1]: above 1 old
/// windows outweigh new ones. The outqueue and top-k bounds keep the
/// slot arena and the Space-Saving table sizable (the presets use
/// outqueue 0-10 and top-k 1-128, and no workload has 1000000 hint
/// sets). The churn threshold is a rank similarity in [0, 1], and the
/// resolved adaptive floor/ceiling pair must not be inverted (0 means
/// the ClicPolicy defaults — floor window/16, ceiling window). Returns
/// "" or the reason, the same wording in both tools.
inline std::string ClicOptionsError(const ClicOptions& clic) {
  if (clic.decay < 0.0 || clic.decay > 1.0) {
    return OutOfRange("--decay", clic.decay,
                      "the history blend r lives in [0, 1]");
  }
  if (clic.outqueue_per_page < 0.0 || clic.outqueue_per_page > 100.0) {
    return OutOfRange("--outqueue", clic.outqueue_per_page,
                      "[0, 100] entries per cache page");
  }
  if (clic.top_k < 1 || clic.top_k > 1'000'000) {
    return "--top-k='" + std::to_string(clic.top_k) +
           "' is out of range (1..1000000)";
  }
  if (clic.churn_threshold < 0.0 || clic.churn_threshold > 1.0) {
    return OutOfRange("--churn-threshold", clic.churn_threshold,
                      "the rank similarity lives in [0, 1]");
  }
  const std::uint64_t floor_w =
      clic.min_window != 0 ? clic.min_window
                           : std::max<std::uint64_t>(1, clic.window / 16);
  const std::uint64_t ceil_w =
      clic.max_window != 0 ? clic.max_window : clic.window;
  if (floor_w > ceil_w) {
    return "--min-window=" + std::to_string(floor_w) +
           (clic.min_window == 0 ? " (defaulted to window/16)" : "") +
           " exceeds --max-window=" + std::to_string(ceil_w) +
           (clic.max_window == 0 ? " (defaulted to the window)" : "") +
           " (need min-window <= max-window)";
  }
  return "";
}

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

}  // namespace clic::cli
