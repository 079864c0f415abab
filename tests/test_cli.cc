// The clic_* command lines in process (server/serve_cli.h,
// sweep/sweep_cli.h): every cli_validation_test.sh rejection with the
// same token and valid-set text, the options every command line in use
// parses to, --help printed from the tables, and a seeded argv fuzzer
// over both parsers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli_util.h"
#include "common/rng.h"
#include "server/serve_cli.h"
#include "sweep/sweep_cli.h"
#include "tests/text_mutator.h"

namespace clic {
namespace {

using server::ParseServeCommand;
using server::ServeCommand;
using sweep::ParseSweepCommand;
using sweep::SweepCommand;

constexpr char kSweep[] = "clic_sweep";
constexpr char kServe[] = "clic_serve";

/// What the tool would print to stderr for `args`; "" when it would
/// not reject them.
std::string Stderr(const std::string& tool,
                   const std::vector<std::string>& args) {
  std::string error;
  if (tool == kSweep) {
    const auto parsed = ParseSweepCommand(args);
    if (parsed.action != cli::Action::kReject) return "";
    error = parsed.text;
  } else {
    const auto parsed = ParseServeCommand(args);
    if (parsed.action != cli::Action::kReject) return "";
    error = parsed.text;
  }
  return cli::ErrorText(tool.c_str(), error);
}

// ---- rejections ------------------------------------------------------------

struct Rejection {
  const char* tool;
  const char* token;  // must appear in stderr
  const char* valid;  // the valid set, which must appear too
  std::vector<std::string> args;
};

// Every rejection of tests/cli_validation_test.sh, in its order, but
// "clic_serve batch exceeds request budget": that one is checked after
// the trace loads, not by the parse.
const std::vector<Rejection>& CliValidationCases() {
  static const std::vector<Rejection> cases = {
      {kSweep, "NO_SUCH_TRACE", "DB2_C60",
       {"--traces=NO_SUCH_TRACE", "--policies=LRU", "--cache-pages=100"}},
      {kSweep, "BOGUS", "MY_H65",
       {"--traces=DB2_C60,BOGUS", "--policies=LRU", "--cache-pages=100"}},
      {kSweep, "LRUU", "CLIC",
       {"--traces=DB2_C60", "--policies=LRUU", "--cache-pages=100"}},
      {kSweep, "12", "ablation", {"--figure=12"}},
      {kSweep, "12", "scan-pollution", {"--figure=12"}},
      {kSweep, "BOGUS", "scan-pollute",
       {"--traces=BOGUS", "--policies=LRU", "--cache-pages=100"}},
      {kSweep, "theta", "zipf",
       {"--traces=zipf:theta=banana", "--policies=LRU", "--cache-pages=100"}},
      {kSweep, "NOPE~noise=1", "derived token",
       {"--traces=NOPE~noise=1", "--policies=CLIC", "--cache-pages=100"}},
      {kSweep, "DB2_C60~noise=9", "[0, 8]",
       {"--traces=DB2_C60~noise=9", "--policies=CLIC", "--cache-pages=100"}},
      {kSweep, "DB2_C60++DB2_C300", "derived token",
       {"--traces=DB2_C60++DB2_C300", "--policies=CLIC",
        "--cache-pages=100"}},
      {kServe, "DB2_C60+", "derived token", {"--workload=DB2_C60+"}},
      {kSweep, "empty token", "--policies",
       {"--traces=DB2_C60", "--policies=LRU,,CLIC", "--cache-pages=100"}},
      {kSweep, "empty token", "--traces",
       {"--traces=DB2_C60,", "--policies=LRU", "--cache-pages=100"}},
      {kSweep, "--bogus", "help", {"--bogus=1"}},
      {kSweep, "abc", "positive integer", {"--figure=6", "--threads=abc"}},
      {kSweep, "foo", "exact, space_saving, lossy_counting",
       {"--figure=6", "--tracker=foo"}},
      {kServe, "foo", "exact, space_saving, lossy_counting",
       {"--trace=DB2_C60", "--tracker=foo"}},
      {kServe, "NOPE", "DB2_C60", {"--trace=NOPE"}},
      {kServe, "NOPE", "scan-pollute", {"--workload=NOPE"}},
      {kServe, "scan-every", "scan-mix", {"--workload=scan-mix:scan-every=0"}},
      {kServe, "--workload", "exactly one",
       {"--trace=DB2_C60", "--workload=scan-pollute"}},
      {kServe, "FIFO", "CLIC", {"--trace=DB2_C60", "--policy=FIFO"}},
      {kServe, "OPT", "clairvoyant", {"--trace=DB2_C60", "--policy=OPT"}},
      {kServe, "--trace", "DB2_C60", {"--policy=LRU"}},
      {kServe, "--verify", "--deterministic", {"--trace=DB2_C60", "--verify"}},
      {kServe, " -3", "positive integer",
       {"--trace=DB2_C60", "--cache-pages= -3"}},
      {kSweep, " -3", "positive integer",
       {"--traces=DB2_C60", "--policies=LRU", "--cache-pages= -3"}},
      {kServe, "-1", "seed=N", {"--workload=zipf:seed=-1"}},
      {kSweep, "-1", "scan-every=N",
       {"--traces=scan-mix:scan-every=-1", "--policies=LRU",
        "--cache-pages=100"}},
      {kServe, "-7", "phase-len=N", {"--workload=phase:phase-len=-7"}},
      {kServe, "shed:every= -1", "shed:every=N",
       {"--trace=DB2_C60", "--fault-plan=shed:every= -1"}},
      {kSweep, "theta=0.9", "inline spec",
       {"--traces=DB2_C60,theta=0.9", "--policies=LRU", "--cache-pages=100"}},
      {kSweep, "empty token", "--traces",
       {"--traces=DB2_C60,,MY_H65", "--policies=LRU", "--cache-pages=100"}},
      {kServe, "--shards", "positive integer",
       {"--trace=DB2_C60", "--shards=0"}},
      {kServe, "-3", "positive integer", {"--trace=DB2_C60", "--clients=-3"}},
      {kServe, "--batch", "positive integer", {"--trace=DB2_C60", "--batch=0"}},
      {kServe, "--cache-pages", "positive integer",
       {"--trace=DB2_C60", "--cache-pages=0"}},
      {kServe, "flood", "stall:",
       {"--trace=DB2_C60", "--fault-plan=flood:every=2"}},
      {kServe, "shed", "every", {"--trace=DB2_C60", "--fault-plan=shed:"}},
      {kServe, "corrupt", "baseline",
       {"--trace=DB2_C60", "--deterministic", "--verify",
        "--fault-plan=corrupt:every=3"}},
      {kServe, "--deadline-ms", "reproducible",
       {"--trace=DB2_C60", "--deterministic", "--verify", "--deadline-ms=5"}},
      {kServe, "--consumers", "positive integer",
       {"--trace=DB2_C60", "--consumers=0"}},
      {kServe, "--consumers=4", "exceeds --shards",
       {"--trace=DB2_C60", "--shards=2", "--consumers=4"}},
      {kServe, "--io-threads", "positive integer",
       {"--trace=DB2_C60", "--connect", "--io-threads=0"}},
      {kServe, "-2", "positive integer",
       {"--trace=DB2_C60", "--connect", "--io-threads=-2"}},
      {kServe, "--conn-limit", "positive integer",
       {"--trace=DB2_C60", "--connect", "--conn-limit=0"}},
      {kServe, "--port", "0..65535",
       {"--trace=DB2_C60", "--listen", "--port=65536"}},
      {kServe, "-1", "non-negative integer",
       {"--trace=DB2_C60", "--listen", "--port=-1"}},
      {kServe, "abc", "finite non-negative",
       {"--trace=DB2_C60", "--connect", "--read-timeout-ms=abc"}},
      {kServe, "--port/--io-threads", "--connect",
       {"--trace=DB2_C60", "--io-threads=2"}},
      {kServe, "--listen and --connect", "valid combinations",
       {"--trace=DB2_C60", "--listen", "--connect"}},
      {kServe, "--listen", "--connect --deterministic --verify",
       {"--trace=DB2_C60", "--listen", "--deterministic", "--verify"}},
      {kServe, "--deterministic", "--connect --deterministic --verify",
       {"--trace=DB2_C60", "--listen", "--deterministic"}},
      {kServe, "--batch=70000", "65535",
       {"--trace=DB2_C60", "--connect", "--batch=70000"}},
      {kServe, "--conn-limit=2", "--clients=8",
       {"--trace=DB2_C60", "--connect", "--clients=8", "--conn-limit=2"}},
      {kServe, "net:reset", "baseline",
       {"--trace=DB2_C60", "--connect", "--deterministic", "--verify",
        "--fault-plan=net:reset=2"}},
      {kServe, "net", "torn-write",
       {"--trace=DB2_C60", "--fault-plan=net:stall-ms=5"}},
      {kSweep, "1.5", "[0, 1]",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=100",
        "--adaptive-window", "--churn-threshold=1.5"}},
      {kSweep, "-0.5", "non-negative",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=100",
        "--adaptive-window", "--churn-threshold=-0.5"}},
      {kSweep, "--min-window=5000", "min-window <= max-window",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=100",
        "--adaptive-window", "--min-window=5000", "--max-window=200"}},
      {kSweep, "defaulted to window/16", "min-window <= max-window",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=100",
        "--adaptive-window", "--window=100000", "--max-window=100"}},
      {kSweep, "--window", "positive integer",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=100",
        "--adaptive-window", "--window=0"}},
      {kServe, "2", "[0, 1]",
       {"--trace=DB2_C60", "--adaptive-window", "--churn-threshold=2"}},
      {kServe, "--min-window=9", "min-window <= max-window",
       {"--trace=DB2_C60", "--adaptive-window", "--min-window=9",
        "--max-window=3"}},
      {kServe, "--window", "positive integer",
       {"--trace=DB2_C60", "--adaptive-window", "--window=0"}},
      {kSweep, "--decay='3'", "[0, 1]",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=12000",
        "--window=2000", "--decay=3"}},
      {kServe, "--decay='3'", "[0, 1]",
       {"--trace=DB2_C60", "--policy=CLIC", "--decay=3"}},
      {kServe, "--outqueue='1e+12'", "[0, 100]",
       {"--trace=DB2_C60", "--policy=CLIC", "--cache-pages=100",
        "--requests=2000", "--outqueue=1e12"}},
      {kSweep, "--outqueue='1e+12'", "[0, 100]",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=100",
        "--outqueue=1e12"}},
      {kSweep, "--top-k='1000000000000'", "1..1000000",
       {"--traces=DB2_C60", "--policies=CLIC", "--cache-pages=100",
        "--tracker=space_saving", "--top-k=1000000000000"}},
      {kServe, "--top-k='1000000000000'", "1..1000000",
       {"--trace=DB2_C60", "--policy=CLIC", "--tracker=space_saving",
        "--top-k=1000000000000"}},
  };
  return cases;
}

// A flag in the wrong form and a setting given twice: each is named.
const std::vector<Rejection>& FormAndRepeatCases() {
  static const std::vector<Rejection> cases = {
      {kServe, "--deterministic", "takes no value",
       {"--trace=DB2_C60", "--deterministic=1"}},
      {kServe, "--verify", "takes no value",
       {"--trace=DB2_C60", "--verify=yes"}},
      {kServe, "--no-charge-metadata", "takes no value",
       {"--trace=DB2_C60", "--no-charge-metadata=1"}},
      {kServe, "--help", "takes no value", {"--help=1"}},
      {kSweep, "--adaptive-window", "takes no value",
       {"--figure=6", "--adaptive-window=0"}},
      {kSweep, "--list", "takes no value", {"--list=1"}},
      {kServe, "--window", "needs a value (--window=W)",
       {"--trace=DB2_C60", "--window"}},
      {kSweep, "--figure", "needs a value (--figure=NAME)", {"--figure"}},
      {kServe, "--shards", "given twice",
       {"--trace=DB2_C60", "--shards=2", "--shards=4"}},
      {kServe, "--trace", "given twice",
       {"--trace=DB2_C60", "--trace=MY_H65"}},
      {kServe, "--listen", "given twice",
       {"--trace=DB2_C60", "--listen", "--listen=0.0.0.0"}},
      {kSweep, "--threads", "given twice",
       {"--figure=6", "--threads=2", "--threads=4"}},
      {kSweep, "--window", "given twice",
       {"--figure=6", "--window=2000", "--window=4000"}},
      {kServe, "shed:every=5", "shed given twice",
       {"--trace=DB2_C60", "--fault-plan=shed:every=3;shed:every=5"}},
      {kServe, "seed=2", "seed given twice",
       {"--trace=DB2_C60", "--fault-plan=seed=1;shed:every=3;seed=2"}},
      {kServe, "corrupt:flips=2", "corrupt given twice",
       {"--trace=DB2_C60", "--fault-plan=corrupt:every=3;corrupt:flips=2"}},
      {kServe, "net:reset=3", "net:reset given twice",
       {"--trace=DB2_C60", "--fault-plan=net:reset=2;net:reset=3"}},
  };
  return cases;
}

void ExpectRejected(const std::vector<Rejection>& cases) {
  for (const Rejection& r : cases) {
    std::string line = r.tool;
    for (const std::string& arg : r.args) line += " '" + arg + "'";
    SCOPED_TRACE(line);
    const std::string text = Stderr(r.tool, r.args);
    ASSERT_FALSE(text.empty()) << "accepted";
    EXPECT_NE(text.find(r.token), std::string::npos) << text;
    EXPECT_NE(text.find(r.valid), std::string::npos) << text;
    // The reason is one line; the second is the --help hint.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2) << text;
  }
}

TEST(CliRejectionTest, EveryCliValidationCaseIsRejectedInProcess) {
  ExpectRejected(CliValidationCases());
}

TEST(CliRejectionTest, WrongFormAndGivenTwiceAreNamed) {
  ExpectRejected(FormAndRepeatCases());
}

TEST(CliActionTest, HelpAndListAreActionsNotRuns) {
  EXPECT_EQ(ParseServeCommand({"--help"}).action, cli::Action::kHelp);
  EXPECT_EQ(ParseServeCommand({"-h"}).action, cli::Action::kHelp);
  EXPECT_EQ(ParseServeCommand({"--list"}).action, cli::Action::kList);
  EXPECT_EQ(ParseSweepCommand({"--help"}).action, cli::Action::kHelp);
  EXPECT_EQ(ParseSweepCommand({"--list"}).action, cli::Action::kList);
  // --help and --list end the line: a bad flag before one is still
  // reported, one after it is not read.
  EXPECT_EQ(ParseSweepCommand({"--threads=0", "--list"}).action,
            cli::Action::kReject);
  EXPECT_EQ(ParseSweepCommand({"--list", "--threads=0"}).action,
            cli::Action::kList);
  EXPECT_EQ(ParseServeCommand({"--help", "--bogus"}).action,
            cli::Action::kHelp);
}

/// Whether --help has a row for `flag`: its line starts with the flag,
/// followed by the help or, for a long flag, a line break.
bool HasRow(const std::string& help, const std::string& flag) {
  return help.find("\n  " + flag + " ") != std::string::npos ||
         help.find("\n  " + flag + "\n") != std::string::npos;
}

// Every flag a tool accepts has a row in its --help.
TEST(CliActionTest, HelpHasARowForEveryFlag) {
  const std::string serve = ParseServeCommand({"--help"}).text;
  const std::string sweep = ParseSweepCommand({"-h"}).text;
  for (const std::string& help : {serve, sweep}) {
    for (const char* flag :
         {"--requests=N", "--cache-dir=PATH", "--window=W", "--decay=R",
          "--outqueue=F", "--no-charge-metadata",
          "--tracker=exact|space_saving|lossy_counting", "--top-k=K",
          "--adaptive-window", "--churn-threshold=S", "--min-window=N",
          "--max-window=N", "--format=csv|json", "--output=FILE", "--list",
          "--help", "-h"}) {
      EXPECT_TRUE(HasRow(help, flag)) << flag;
    }
  }
  for (const char* flag :
       {"--trace=NAME", "--workload=SPEC", "--policy=NAME", "--shards=S",
        "--cache-pages=N", "--clients=C", "--batch=B", "--consumers=K",
        "--deterministic", "--verify", "--deadline-ms=F", "--fault-plan=SPEC",
        "--listen", "--listen=ADDR", "--connect", "--port=N",
        "--io-threads=N", "--conn-limit=N", "--read-timeout-ms=F"}) {
    EXPECT_TRUE(HasRow(serve, flag)) << flag;
  }
  for (const char* flag : {"--figure=NAME", "--traces=A,B",
                           "--policies=LRU,CLIC", "--cache-pages=6000,12000",
                           "--threads=N"}) {
    EXPECT_TRUE(HasRow(sweep, flag)) << flag;
  }
}

// ---- the options every command line in use parses to -------------------

std::vector<std::string> Args(const std::string& line) {
  return line.empty() ? std::vector<std::string>{} : parse::Split(line, ' ');
}

std::string Real(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string DescribeClic(const ClicOptions& c) {
  return std::to_string(c.window) + "/" + Real(c.decay) + "/" +
         Real(c.outqueue_per_page) + "/" + std::to_string(c.charge_metadata) +
         "/" + std::to_string(static_cast<int>(c.tracker)) + "/" +
         std::to_string(c.top_k) + "/" + std::to_string(c.adaptive_window) +
         "/" + Real(c.churn_threshold) + "/" + std::to_string(c.min_window) +
         "/" + std::to_string(c.max_window);
}

/// Every ServeCommand field, the ServerOptions and LoadOptions it
/// carries (the fault plan as shed/corrupt/stall/pause/net counts), and
/// the NetServerOptions of a --listen or --connect command ("net -").
std::string Describe(const ServeCommand& o) {
  const server::fault::FaultPlan& f = o.fault_plan;
  std::string out = o.trace + " " + PolicyName(o.server.policy) +
                    " shards=" + std::to_string(o.server.shards) +
                    " pages=" + std::to_string(o.server.cache_pages) +
                    " consumers=" + std::to_string(o.server.consumers) +
                    " det=" + std::to_string(o.server.deterministic) +
                    " verify=" + std::to_string(o.verify) +
                    " clients=" + std::to_string(o.load.clients) +
                    " batch=" + std::to_string(o.load.batch_size) +
                    " requests=" + std::to_string(o.requests) +
                    " dir=" + o.cache_dir + " " + o.format +
                    " out=" + o.output +
                    " deadline=" + Real(o.server.batch_deadline_ms) +
                    " clic=" + DescribeClic(o.server.clic) + " fault=";
  if (o.has_fault_plan) {
    out += std::to_string(f.seed) + "/shed" + std::to_string(f.shed_every) +
           "/corrupt" + std::to_string(f.corrupt_every) + "x" +
           std::to_string(f.corrupt_flips) + "/stalls" +
           std::to_string(f.stalls.size()) + "/pauses" +
           std::to_string(f.pauses.size()) + "/net" +
           std::to_string(f.net_torn_write_every) + "," +
           std::to_string(f.net_partial_read_every) + "," +
           std::to_string(f.net_reset_every) + "," +
           std::to_string(f.net_accept_stall_every);
  } else {
    out += "-";
  }
  out += " net ";
  if (!o.listen && !o.connect) return out + "-";
  const server::net::NetServerOptions n = server::NetServerOptionsFor(o);
  return out + (o.listen ? "listen " : "connect ") + n.listen_addr + ":" +
         std::to_string(n.port) + " io=" + std::to_string(n.io_threads) +
         " conns=" + std::to_string(n.conn_limit) +
         " rto=" + Real(n.read_timeout_ms) +
         " max_batch=" + std::to_string(n.max_batch);
}

std::string DescribeSpec(const sweep::SweepSpec& spec) {
  std::vector<std::string> policies, sizes, variants;
  for (PolicyKind kind : spec.policies) policies.push_back(PolicyName(kind));
  for (std::size_t size : spec.cache_sizes) {
    sizes.push_back(std::to_string(size));
  }
  for (const sweep::ClicVariant& v : spec.variants) {
    variants.push_back(v.label + "{" + DescribeClic(v.options) + "}");
  }
  return cli::Join(spec.traces, " | ") + " " + cli::Join(policies, ",") + " " +
         cli::Join(sizes, ",") + " " + cli::Join(variants, ";");
}

/// Every SweepCommand field. "figure:X" stands for the spec of preset X,
/// unchanged.
std::string Describe(const SweepCommand& o) {
  std::string spec = DescribeSpec(o.spec);
  for (const sweep::FigurePreset& preset : sweep::FigurePresets()) {
    if (spec == DescribeSpec(preset.spec)) spec = "figure:" + preset.name;
  }
  return spec + " threads=" + std::to_string(o.threads) +
         " requests=" + std::to_string(o.requests) + " dir=" + o.cache_dir +
         " " + o.format + " out=" + o.output;
}

struct SameOptions {
  std::string line;
  std::string options;
};

// Every clic_serve command line of .github/workflows/ci.yml,
// tests/golden_outputs_test.py (its --cache-dir written DIR) and the
// README Quickstart, with the options it parses to.
const SameOptions kServeLines[] = {
    // ci.yml: the server scaling gate, LRU:1 LRU:4 CLIC:1 CLIC:4.
    {"--trace=DB2_C60 --policy=LRU --shards=1 --clients=4 "
     "--cache-pages=12000 --batch=256 --format=json",
     "DB2_C60 LRU shards=1 pages=12000 consumers=0 det=0 verify=0 clients=4 "
     "batch=256 requests=0 dir= json out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=LRU --shards=4 --clients=4 "
     "--cache-pages=12000 --batch=256 --format=json",
     "DB2_C60 LRU shards=4 pages=12000 consumers=0 det=0 verify=0 clients=4 "
     "batch=256 requests=0 dir= json out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=1 --clients=4 "
     "--cache-pages=12000 --batch=256 --format=json",
     "DB2_C60 CLIC shards=1 pages=12000 consumers=0 det=0 verify=0 clients=4 "
     "batch=256 requests=0 dir= json out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 "
     "--cache-pages=12000 --batch=256 --format=json",
     "DB2_C60 CLIC shards=4 pages=12000 consumers=0 det=0 verify=0 clients=4 "
     "batch=256 requests=0 dir= json out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    // ci.yml: the server smoke.
    {"--trace=DB2_C60 --policy=LRU --shards=2 --clients=2 --cache-pages=6000 "
     "--deterministic --verify",
     "DB2_C60 LRU shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --deterministic --verify",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 "
     "--cache-pages=6000 --consumers=4 --deterministic --verify",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=4 det=1 verify=1 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 "
     "--cache-pages=6000 --format=json --output=serve.json",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= json out=serve.json deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 "
     "--cache-pages=6000 --format=csv --output=serve.csv",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out=serve.csv deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--workload=DB2_C60+DB2_C300 --policy=LRU --shards=2 --clients=2 "
     "--cache-pages=6000 --deterministic --verify --format=json "
     "--output=mix.json",
     "DB2_C60+DB2_C300 LRU shards=2 pages=6000 consumers=0 det=1 verify=1 "
     "clients=2 batch=64 requests=0 dir= json out=mix.json deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    // Also the README Quickstart's first serve.
    {"--workload=scan-pollute --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --deterministic --verify",
     "scan-pollute CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 "
     "clients=2 batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--workload=phase-abrupt --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --adaptive-window --window=2000 --deterministic "
     "--verify",
     "phase-abrupt CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 "
     "clients=2 batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=2000/1/5/1/0/100/1/0.5/0/0 fault=- net -"},
    // ci.yml: the chaos smoke.
    {"--trace=DB2_C60 --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --deterministic --verify "
     "--fault-plan=stall:shard=0,after=3,drains=2,ms=20;"
     "pause:consumer=0,after=5,batches=1,ms=10",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls1/pauses1/net0,0,0,0 net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --deterministic --verify --fault-plan=shed:every=5",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed5/corrupt0x1/stalls0/pauses0/net0,0,0,0 net -"},
    {"--workload=scan-pollute --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --fault-plan=corrupt:every=3,flips=2;seed=9",
     "scan-pollute CLIC shards=2 pages=6000 consumers=0 det=0 verify=0 "
     "clients=2 batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=9/shed0/corrupt3x2/stalls0/pauses0/net0,0,0,0 net -"},
    {"--trace=DB2_C60 --policy=LRU --shards=2 --clients=2 --cache-pages=6000 "
     "--fault-plan=stall:shard=0,after=0,drains=100,ms=20",
     "DB2_C60 LRU shards=2 pages=6000 consumers=0 det=0 verify=0 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls1/pauses0/net0,0,0,0 net -"},
    // ci.yml: the wire smoke (the first is also the README's).
    {"--trace=DB2_C60 --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --connect --deterministic --verify",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net connect 127.0.0.1:0 "
     "io=1 conns=2 rto=0 max_batch=4096"},
    {"--workload=phase-abrupt --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --adaptive-window --window=2000 --connect "
     "--deterministic --verify",
     "phase-abrupt CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 "
     "clients=2 batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=2000/1/5/1/0/100/1/0.5/0/0 fault=- net connect 127.0.0.1:0 io=1 "
     "conns=2 rto=0 max_batch=4096"},
    {"--trace=DB2_C60 --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --connect --deterministic --verify "
     "--fault-plan=net:torn-write=3,partial-read=5,accept-stall=2,stall-ms=2",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls0/pauses0/net3,5,0,2 net connect "
     "127.0.0.1:0 io=1 conns=2 rto=0 max_batch=4096"},
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 "
     "--cache-pages=6000 --connect --io-threads=2 --consumers=2 "
     "--deterministic --verify "
     "--fault-plan=net:torn-write=3,partial-read=5,accept-stall=2,stall-ms=2",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=2 det=1 verify=1 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls0/pauses0/net3,5,0,2 net connect "
     "127.0.0.1:0 io=2 conns=4 rto=0 max_batch=4096"},
    {"--trace=DB2_C60 --policy=LRU --shards=4 --clients=4 --cache-pages=6000 "
     "--connect --io-threads=2 --fault-plan=net:reset=3",
     "DB2_C60 LRU shards=4 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls0/pauses0/net0,0,3,0 net connect "
     "127.0.0.1:0 io=2 conns=4 rto=0 max_batch=4096"},
    // ci.yml: the ASan job's serves.
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 --cache-pages=6000",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=2 --clients=2 "
     "--cache-pages=6000 --connect --deterministic --verify "
     "--fault-plan=net:torn-write=3,partial-read=4",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls0/pauses0/net3,4,0,0 net connect "
     "127.0.0.1:0 io=1 conns=2 rto=0 max_batch=4096"},
    // ci.yml: the TSan job's serves.
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 --cache-pages=6000 "
     "--fault-plan=stall:shard=0,after=0,drains=50,ms=10;"
     "pause:consumer=1,after=3,batches=2,ms=5",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls1/pauses1/net0,0,0,0 net -"},
    {"--trace=DB2_C60 --policy=LRU --shards=2 --clients=4 --cache-pages=6000 "
     "--deadline-ms=50 --fault-plan=stall:shard=1,after=2,drains=20,ms=15",
     "DB2_C60 LRU shards=2 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=50 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls1/pauses0/net0,0,0,0 net -"},
    {"--trace=DB2_C60 --policy=LRU --shards=2 --clients=4 --cache-pages=6000 "
     "--deadline-ms=50 --fault-plan=stall:shard=0,after=2,drains=20,ms=15;"
     "stall:shard=1,after=2,drains=20,ms=15",
     "DB2_C60 LRU shards=2 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=50 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls2/pauses0/net0,0,0,0 net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 --cache-pages=6000 "
     "--consumers=2 "
     "--fault-plan=stall:shard=2,after=1,drains=30,ms=10;shed:every=9",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=2 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed9/corrupt0x1/stalls1/pauses0/net0,0,0,0 net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=2 --clients=2 --cache-pages=6000 "
     "--consumers=2 --deterministic --verify "
     "--fault-plan=stall:shard=0,after=3,drains=2,ms=20;"
     "pause:consumer=1,after=5,batches=1,ms=10;shed:every=5",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=2 det=1 verify=1 clients=2 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed5/corrupt0x1/stalls1/pauses1/net0,0,0,0 net -"},
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --clients=4 --cache-pages=6000 "
     "--connect --io-threads=2 "
     "--fault-plan=net:torn-write=2,partial-read=3,reset=2",
     "DB2_C60 CLIC shards=4 pages=6000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 "
     "fault=1/shed0/corrupt0x1/stalls0/pauses0/net2,3,2,0 net connect "
     "127.0.0.1:0 io=2 conns=4 rto=0 max_batch=4096"},
    // golden_outputs_test.py: serve-clic-w2000 and its --connect twin.
    {"--cache-dir=DIR --format=csv --trace=DB2_C60 --policy=CLIC --shards=2 "
     "--clients=2 --cache-pages=6000 --requests=20000 --window=2000 "
     "--deterministic --verify",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=20000 dir=DIR csv out= deadline=0 "
     "clic=2000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--cache-dir=DIR --format=csv --trace=DB2_C60 --policy=CLIC --shards=2 "
     "--clients=2 --cache-pages=6000 --requests=20000 --window=2000 "
     "--deterministic --verify --connect",
     "DB2_C60 CLIC shards=2 pages=6000 consumers=0 det=1 verify=1 clients=2 "
     "batch=64 requests=20000 dir=DIR csv out= deadline=0 "
     "clic=2000/1/5/1/0/100/0/0.5/0/0 fault=- net connect 127.0.0.1:0 io=1 "
     "conns=2 rto=0 max_batch=4096"},
    // cli_validation_test.sh: its verified runs, at any consumer and io
    // thread count (--deterministic orders the drivers, not the server).
    {"--trace=DB2_C60 --requests=2000 --cache-dir=DIR --deterministic "
     "--verify --consumers=2",
     "DB2_C60 LRU shards=4 pages=12000 consumers=2 det=1 verify=1 clients=4 "
     "batch=64 requests=2000 dir=DIR csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net -"},
    {"--trace=DB2_C60 --requests=2000 --cache-dir=DIR --connect "
     "--deterministic --verify --io-threads=4",
     "DB2_C60 LRU shards=4 pages=12000 consumers=0 det=1 verify=1 clients=4 "
     "batch=64 requests=2000 dir=DIR csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net connect 127.0.0.1:0 "
     "io=4 conns=4 rto=0 max_batch=4096"},
    // README Quickstart: the stand-alone network server.
    {"--trace=DB2_C60 --policy=CLIC --shards=4 --listen --port=7433 "
     "--conn-limit=64 --read-timeout-ms=1000",
     "DB2_C60 CLIC shards=4 pages=12000 consumers=0 det=0 verify=0 clients=4 "
     "batch=64 requests=0 dir= csv out= deadline=0 "
     "clic=100000/1/5/1/0/100/0/0.5/0/0 fault=- net listen 127.0.0.1:7433 "
     "io=1 conns=64 rto=1000 max_batch=4096"},
};

// Every clic_sweep command line of .github/workflows/ci.yml,
// tests/golden_outputs_test.py (its --cache-dir written DIR) and the
// README Quickstart, with the options it parses to.
const std::vector<SameOptions>& SweepLines() {
  static const std::vector<SameOptions> lines = [] {
    std::vector<SameOptions> out = {
        // ci.yml: the sweep smoke, each grid at 2 and 1 threads.
        {"--figure=6 --threads=2 --format=csv --output=t2.csv",
         "figure:6 threads=2 requests=0 dir= csv out=t2.csv"},
        {"--figure=6 --threads=1 --format=csv --output=t1.csv",
         "figure:6 threads=1 requests=0 dir= csv out=t1.csv"},
        {"--figure=6 --policies=CLIC --window=2000 --threads=2 --format=csv "
         "--output=t2.csv",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/1/5/1/0/100/0/0.5/0/0} threads=2 requests=0 dir= csv "
         "out=t2.csv"},
        {"--figure=6 --policies=CLIC --window=2000 --threads=1 --format=csv "
         "--output=t1.csv",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/1/5/1/0/100/0/0.5/0/0} threads=1 requests=0 dir= csv "
         "out=t1.csv"},
        {"--figure=6 --policies=CLIC --window=2000 --decay=0.5 --threads=2 "
         "--format=csv --output=t2.csv",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/0.5/5/1/0/100/0/0.5/0/0} threads=2 requests=0 dir= csv "
         "out=t2.csv"},
        {"--figure=6 --policies=CLIC --window=2000 --decay=0.5 --threads=1 "
         "--format=csv --output=t1.csv",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/0.5/5/1/0/100/0/0.5/0/0} threads=1 requests=0 dir= csv "
         "out=t1.csv"},
        {"--figure=scan-pollution --threads=2 --format=csv --output=t2.csv",
         "figure:scan-pollution threads=2 requests=0 dir= csv out=t2.csv"},
        {"--figure=scan-pollution --threads=1 --format=csv --output=t1.csv",
         "figure:scan-pollution threads=1 requests=0 dir= csv out=t1.csv"},
        {"--figure=phase-shift --threads=2 --format=csv --output=t2.csv",
         "figure:phase-shift threads=2 requests=0 dir= csv out=t2.csv"},
        {"--figure=phase-shift --threads=1 --format=csv --output=t1.csv",
         "figure:phase-shift threads=1 requests=0 dir= csv out=t1.csv"},
        {"--figure=phase-shift --threads=2 --format=json --output=t2.json",
         "figure:phase-shift threads=2 requests=0 dir= json out=t2.json"},
        {"--traces=zipf:pages=20000,theta=0.9,buffer=500,n=20000,DB2_C60 "
         "--policies=LRU,CLIC --cache-pages=6000 --threads=1 --format=csv "
         "--output=inline1.csv",
         "zipf:pages=20000,theta=0.9,buffer=500,n=20000 | DB2_C60 LRU,CLIC "
         "6000 {100000/1/5/1/0/100/0/0.5/0/0} threads=1 requests=0 dir= csv "
         "out=inline1.csv"},
        {"--traces=zipf:pages=20000,theta=0.9,buffer=500,n=20000,DB2_C60 "
         "--policies=LRU,CLIC --cache-pages=6000 --threads=2 --format=csv "
         "--output=inline2.csv",
         "zipf:pages=20000,theta=0.9,buffer=500,n=20000 | DB2_C60 LRU,CLIC "
         "6000 {100000/1/5/1/0/100/0/0.5/0/0} threads=2 requests=0 dir= csv "
         "out=inline2.csv"},
        // ci.yml: the ASan job's sweeps.
        {"--traces=DB2_C60,scan-pollute --policies=LRU,CLIC "
         "--cache-pages=6000,12000 --threads=2 --format=csv "
         "--output=sweep.csv",
         "DB2_C60 | scan-pollute LRU,CLIC 6000,12000 "
         "{100000/1/5/1/0/100/0/0.5/0/0} threads=2 requests=0 dir= csv "
         "out=sweep.csv"},
        {"--traces=phase-abrupt,phase-gradual --policies=CLIC "
         "--cache-pages=12000 --adaptive-window --window=2000 --decay=0.5 "
         "--threads=2 --format=csv --output=adaptive.csv",
         "phase-abrupt | phase-gradual CLIC 12000 "
         "{2000/0.5/5/1/0/100/1/0.5/0/0} threads=2 requests=0 dir= csv "
         "out=adaptive.csv"},
        {"--figure=6 --policies=CLIC --window=2000 --tracker=space_saving "
         "--top-k=5 --threads=2 --format=csv --output=tracker.csv",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/1/5/1/1/5/0/0.5/0/0} threads=2 requests=0 dir= csv "
         "out=tracker.csv"},
        // golden_outputs_test.py: fig-6-clic-w2000 and its three twins.
        {"--threads=2 --cache-dir=DIR --format=csv --figure=6 "
         "--policies=CLIC --requests=20000 --window=2000",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/1/5/1/0/100/0/0.5/0/0} threads=2 requests=20000 dir=DIR csv "
         "out="},
        {"--threads=2 --cache-dir=DIR --format=csv --figure=6 "
         "--policies=CLIC --requests=20000 --window=2000 --decay=0",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/0/5/1/0/100/0/0.5/0/0} threads=2 requests=20000 dir=DIR csv "
         "out="},
        {"--threads=2 --cache-dir=DIR --format=csv --figure=6 "
         "--policies=CLIC --requests=20000 --window=2000 "
         "--tracker=space_saving --top-k=5",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/1/5/1/1/5/0/0.5/0/0} threads=2 requests=20000 dir=DIR csv "
         "out="},
        {"--threads=2 --cache-dir=DIR --format=csv --figure=6 "
         "--policies=CLIC --requests=20000 --window=2000 --adaptive-window",
         "DB2_C60 | DB2_C300 | DB2_C540 CLIC 6000,12000,18000,24000,30000 "
         "{2000/1/5/1/0/100/1/0.5/0/0} threads=2 requests=20000 dir=DIR csv "
         "out="},
        // golden: --window=2000 overrides all three phase-shift variants,
        // each keeping its other options.
        {"--threads=2 --cache-dir=DIR --format=csv --figure=phase-shift "
         "--requests=200000 --window=2000",
         "phase-abrupt | phase-gradual LRU,ARC,TQ,CLIC 6000,12000,18000 "
         "paper{2000/1/5/1/0/100/0/0.5/0/0};"
         "adaptive{2000/1/5/1/0/100/1/0.5/0/0};"
         "W=20000/r=0.2{2000/0.2/5/1/0/100/0/0.5/0/0} threads=2 "
         "requests=200000 dir=DIR csv out="},
        {"--threads=2 --cache-dir=DIR --format=csv --figure=phase-shift",
         "figure:phase-shift threads=2 requests=0 dir=DIR csv out="},
        // README Quickstart.
        {"--figure=6 --threads=4 --requests=100000 --format=csv",
         "figure:6 threads=4 requests=100000 dir= csv out="},
        {"--figure=9 --threads=4 --requests=400000 --format=csv",
         "figure:9 threads=4 requests=400000 dir= csv out="},
        {"--figure=scan-pollution --threads=4 --format=csv",
         "figure:scan-pollution threads=4 requests=0 dir= csv out="},
        {"--figure=phase-shift --threads=4 --format=csv",
         "figure:phase-shift threads=4 requests=0 dir= csv out="},
    };
    // golden_outputs_test.py: every preset at 20000 requests, and the
    // presets whose CLIC variants differ only once windows close at
    // 200000.
    const auto add = [&out](const std::string& figure, const char* cap) {
      out.push_back({"--threads=2 --cache-dir=DIR --format=csv --figure=" +
                         figure + " --requests=" + cap,
                     "figure:" + figure + " threads=2 requests=" + cap +
                         " dir=DIR csv out="});
    };
    for (const sweep::FigurePreset& preset : sweep::FigurePresets()) {
      add(preset.name, "20000");
    }
    for (const char* figure : {"9", "10", "11", "window", "outqueue",
                               "tracker"}) {
      add(figure, "200000");
    }
    return out;
  }();
  return lines;
}

TEST(SameOptionsTest, EveryServeLineInUseParsesToItsPinnedOptions) {
  for (const SameOptions& row : kServeLines) {
    SCOPED_TRACE(row.line);
    const auto parsed = ParseServeCommand(Args(row.line));
    ASSERT_EQ(parsed.action, cli::Action::kRun) << parsed.text;
    EXPECT_EQ(Describe(parsed.options), row.options);
  }
}

TEST(SameOptionsTest, EverySweepLineInUseParsesToItsPinnedOptions) {
  for (const SameOptions& row : SweepLines()) {
    SCOPED_TRACE(row.line);
    const auto parsed = ParseSweepCommand(Args(row.line));
    ASSERT_EQ(parsed.action, cli::Action::kRun) << parsed.text;
    EXPECT_EQ(Describe(parsed.options), row.options);
  }
}

// ---- seeded argv fuzzer ----------------------------------------------------

/// One to three whole-argument edits: drop one, duplicate one, or
/// mutate one with the grammar fuzzers' text mutator.
std::vector<std::string> MutateArgs(std::vector<std::string> args, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.Below(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng.Below(args.size() + 1);
    switch (rng.Below(3)) {
      case 0:
        if (at < args.size()) args.erase(args.begin() + at);
        break;
      case 1:
        if (at < args.size()) args.insert(args.begin() + at, args[at]);
        break;
      default:
        if (at < args.size()) args[at] = Mutate(args[at], rng);
        break;
    }
  }
  return args;
}

// Argv mutants of every command line in use, fed to both parsers.
// Nothing may crash, throw or exit (ASan and UBSan builds run this too),
// every rejection is one non-empty line, and each parser must accept
// some mutants, so its accepting path is reached too.
TEST(GrammarFuzzTest, ArgvMutantsNeverCrashAndRejectWithOneLine) {
  std::vector<std::vector<std::string>> seeds;
  for (const SameOptions& row : kServeLines) seeds.push_back(Args(row.line));
  for (const SameOptions& row : SweepLines()) seeds.push_back(Args(row.line));
  for (const Rejection& r : CliValidationCases()) seeds.push_back(r.args);

  constexpr int kMutantsPerSeed = 100;
  Rng rng(0xC11C);
  std::array<std::size_t, 2> accepted{};
  const auto check = [&accepted](std::size_t parser, cli::Action action,
                                 const std::string& error,
                                 const std::vector<std::string>& args) {
    if (action != cli::Action::kReject) {
      ++accepted[parser];
      return;
    }
    std::string line;
    for (const std::string& arg : args) line += " '" + arg + "'";
    EXPECT_FALSE(error.empty()) << parser << ":" << line;
    EXPECT_EQ(error.find('\n'), std::string::npos) << parser << ":" << line;
  };
  for (const std::vector<std::string>& seed : seeds) {
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::vector<std::string> args = MutateArgs(seed, rng);
      const auto serve = ParseServeCommand(args);
      check(0, serve.action, serve.text, args);
      const auto sweep = ParseSweepCommand(args);
      check(1, sweep.action, sweep.text, args);
    }
  }
  EXPECT_GE(accepted[0], 50u) << "clic_serve";
  EXPECT_GE(accepted[1], 50u) << "clic_sweep";
}

}  // namespace
}  // namespace clic
