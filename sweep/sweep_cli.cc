#include "sweep/sweep_cli.h"

namespace clic::sweep {
namespace {

using cli::Form;

/// Where the rows store: the command, plus what overrides the preset
/// once it is known.
struct SweepArgs {
  cli::Parsed<SweepCommand> parsed;
  std::string figure;
  SweepSpec axes;    // --traces, --policies, --cache-pages
  ClicOptions clic;  // checks the CLIC values; they replay per variant
};

/// Every row of clic_sweep, pointing into *a.
cli::FlagTable SweepTable(SweepArgs* a) {
  SweepCommand& o = a->parsed.options;
  return {
      {"Grid (explicit axes override the --figure preset's)",
       {cli::Row("--figure", Form::kText, "NAME", &a->figure,
                 "preset grid (--list names them)"),
        cli::Row("--traces", Form::kWorkload, "A,B", &a->axes.traces,
                 "workload tokens (see --list)"),
        cli::OneOf("--policies", "LRU,CLIC", cli::PolicyChoices(),
                   &a->axes.policies, "policy names (see --list)", true),
        cli::Row("--cache-pages", Form::kN, "6000,12000",
                 &a->axes.cache_sizes, "server cache sizes, in pages")}},
      {"Execution",
       {cli::Row("--threads", Form::kN, "N", &o.threads,
                 "worker threads (default: hardware concurrency)", 4096),
        cli::Row("--requests", Form::kN, "N", &o.requests,
                 "cap trace length (overrides CLIC_BENCH_REQUESTS)"),
        cli::Row("--cache-dir", Form::kText, "PATH", &o.cache_dir,
                 "trace cache (overrides CLIC_TRACE_CACHE_DIR)")}},
      {"CLIC options (Section 6.1 defaults; each overrides every variant)",
       cli::ClicRows(&a->clic)},
      {"Output",
       {cli::OneOf("--format", "", {{"csv", "csv"}, {"json", "json"}},
                   &o.format, "csv rows, or one JSON array of row objects"),
        cli::Row("--output", Form::kText, "FILE", &o.output,
                 "default: stdout"),
        cli::Switch("--list", &a->parsed.action, cli::Action::kList,
                    "print traces, token forms, presets and policies"),
        cli::Switch("--help", &a->parsed.action, cli::Action::kHelp,
                    "this text"),
        cli::Switch("-h", &a->parsed.action, cli::Action::kHelp,
                    "the same")}},
  };
}

/// The preset, then the explicit axes over it, then the CLIC values
/// given over every variant. Returns "" or the reason the grid is
/// rejected.
std::string ResolveGrid(SweepArgs* a, const cli::Given& given) {
  SweepSpec& spec = a->parsed.options.spec;
  if (!a->figure.empty()) {
    std::optional<SweepSpec> preset = FigureSpec(a->figure);
    if (!preset) {
      return "unknown --figure='" + a->figure +
             "' (valid figures: " + FigureNames() + ")";
    }
    spec = std::move(*preset);
  }
  if (!a->axes.traces.empty()) spec.traces = a->axes.traces;
  if (!a->axes.policies.empty()) spec.policies = a->axes.policies;
  if (!a->axes.cache_sizes.empty()) spec.cache_sizes = a->axes.cache_sizes;
  if (spec.traces.empty() || spec.policies.empty() ||
      spec.cache_sizes.empty()) {
    return "empty grid: need --figure or all of --traces/--policies/"
           "--cache-pages";
  }
  // The CLIC values passed their rules once already, against a->clic.
  for (ClicVariant& variant : spec.variants) {
    for (const cli::Flag& flag : cli::ClicRows(&variant.options)) {
      const auto value = given.find(flag.name);
      if (value != given.end()) cli::Store(flag, value->second);
    }
    const std::string error = cli::ClicOptionsError(variant.options);
    if (!error.empty()) return error;
  }
  return "";
}

}  // namespace

std::string FigureNames() {
  std::vector<std::string> names;
  for (const FigurePreset& preset : FigurePresets()) {
    names.push_back(preset.name);
  }
  return cli::Join(names, ", ");
}

cli::Parsed<SweepCommand> ParseSweepCommand(
    const std::vector<std::string>& args) {
  SweepArgs a;
  const cli::FlagTable table = SweepTable(&a);
  cli::Given given;
  std::string& text = a.parsed.text;
  text = cli::ParseArgs(table, args, &given, &a.parsed.action);
  if (text.empty() && a.parsed.action == cli::Action::kRun) {
    text = ResolveGrid(&a, given);
  }
  if (!text.empty()) {
    a.parsed.action = cli::Action::kReject;
  } else if (a.parsed.action == cli::Action::kHelp) {
    text = cli::Help("Usage: clic_sweep [flags]", table);
  }
  return a.parsed;
}

}  // namespace clic::sweep
