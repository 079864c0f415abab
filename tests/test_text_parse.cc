// The one grammar of the text inputs (common/text_parse.h): the number
// rules, the clause splitter, the workload-token list splitter, a table
// pinning the values every spec and fault plan in use parses to, and a
// seeded mutation fuzzer over all three grammars.
#include "common/text_parse.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "server/fault_injection.h"
#include "sweep/sweep.h"
#include "tests/text_mutator.h"
#include "workload/scenario.h"
#include "workload/token.h"

namespace clic {
namespace {

using server::fault::FaultPlan;
using server::fault::ParseFaultPlan;

// ---- number rules ----------------------------------------------------------

TEST(NumberRuleTest, UnsignedTakesDigitsOnly) {
  for (const char* ok : {"0", "7", "007", "18446744073709551615"}) {
    std::uint64_t value = 99;
    EXPECT_TRUE(parse::Unsigned(ok, &value)) << "'" << ok << "'";
  }
  std::uint64_t value = 0;
  ASSERT_TRUE(parse::Unsigned("600000", &value));
  EXPECT_EQ(value, 600'000u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "\t1", "1x", "0x10",
                          "1.0", "1e3", "18446744073709551616"}) {
    std::uint64_t untouched = 99;
    EXPECT_FALSE(parse::Unsigned(bad, &untouched)) << "'" << bad << "'";
    EXPECT_EQ(untouched, 99u) << "'" << bad << "'";
  }
  // "Fits its field": the same text can fit one field and not another.
  std::uint32_t narrow = 0;
  EXPECT_TRUE(parse::Unsigned("4294967295", &narrow));
  EXPECT_FALSE(parse::Unsigned("4294967296", &narrow));
  bool flag = false;
  EXPECT_TRUE(parse::Unsigned("1", &flag));
  EXPECT_TRUE(flag);
  EXPECT_FALSE(parse::Unsigned("2", &flag));
}

TEST(NumberRuleTest, RealTakesNoSignOrLeadingSpace) {
  const struct {
    const char* text;
    double value;
  } accepted[] = {{"0", 0.0}, {"0.9", 0.9}, {".5", 0.5}, {"2.5", 2.5},
                  {"1e3", 1000.0}, {"0x1p-2", 0.25}, {"20", 20.0}};
  for (const auto& a : accepted) {
    double value = -1.0;
    ASSERT_TRUE(parse::Real(a.text, &value)) << a.text;
    EXPECT_EQ(value, a.value) << a.text;
  }
  for (const char* bad : {"", "-1", "+1", "-0", " 1", "\n1", "1 ", "1x",
                          "inf", "nan", "1e999", "1e-400", "."}) {
    double untouched = -1.0;
    EXPECT_FALSE(parse::Real(bad, &untouched)) << "'" << bad << "'";
    EXPECT_EQ(untouched, -1.0) << "'" << bad << "'";
  }
}

// ---- the clause splitter ---------------------------------------------------

struct Probe {
  std::uint64_t count = 0;
  double ms = 0.0;
};

TEST(ClauseTest, KeyValuesStoresThroughTheTableAndNamesTheOffender) {
  const std::vector<parse::Key<Probe>> keys = {
      parse::UnsignedKey("count", &Probe::count),
      parse::RealKey("ms", &Probe::ms)};
  EXPECT_EQ(parse::KeyList(keys, ", "), "count=N, ms=F");
  Probe probe;
  std::string error;
  ASSERT_TRUE(parse::KeyValues("ms=2.5,count=3,count=4", keys, &probe, &error))
      << error;
  EXPECT_EQ(probe.count, 4u);  // a repeated key keeps its last value
  EXPECT_EQ(probe.ms, 2.5);
  const struct {
    const char* body;
    const char* message;
  } rejected[] = {
      {"", "malformed key=value pair ''"},
      {"count=1,", "malformed key=value pair ''"},
      {"count", "malformed key=value pair 'count'"},
      {"=3", "malformed key=value pair '=3'"},
      {"size=3", "unknown key 'size'"},
      {"count=-3", "bad value '-3' for count=N"},
      {"ms= 2", "bad value ' 2' for ms=F"},
      {"count=3=4", "bad value '3=4' for count=N"},
  };
  for (const auto& r : rejected) {
    EXPECT_FALSE(parse::KeyValues(r.body, keys, &probe, &error)) << r.body;
    EXPECT_EQ(error, r.message) << r.body;
  }
}

TEST(ClauseTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(parse::Split("", ','), std::vector<std::string>({""}));
  EXPECT_EQ(parse::Split("a,,b,", ','),
            std::vector<std::string>({"a", "", "b", ""}));
}

// ---- the workload-token list -----------------------------------------------

TEST(WorkloadListTest, KeySegmentsContinueTheInlineSpecBeforeThem) {
  const struct {
    const char* list;
    std::vector<std::string> tokens;
  } accepted[] = {
      {"zipf:pages=120000,theta=0.9,DB2_C60",
       {"zipf:pages=120000,theta=0.9", "DB2_C60"}},
      {"zipf:theta=0.5,DB2_C60~noise=1", {"zipf:theta=0.5", "DB2_C60~noise=1"}},
      {"DB2_C60,MY_H65", {"DB2_C60", "MY_H65"}},
      {"DB2_C60+zipf:pages=20000,buffer=500,scan-pollute",
       {"DB2_C60+zipf:pages=20000,buffer=500", "scan-pollute"}},
      {"NOT_A_TRACE", {"NOT_A_TRACE"}},  // resolution is the caller's
  };
  for (const auto& a : accepted) {
    std::string error;
    const auto tokens = SplitWorkloadList(a.list, &error);
    ASSERT_TRUE(tokens.has_value()) << a.list << ": " << error;
    EXPECT_EQ(*tokens, a.tokens) << a.list;
  }
  const struct {
    const char* list;
    const char* names;
  } rejected[] = {
      {"DB2_C60,theta=0.9", "'theta=0.9' continues no inline spec"},
      {"theta=0.9,DB2_C60", "'theta=0.9' continues no inline spec"},
      {"DB2_C60~noise=1,n=5", "'n=5' continues no inline spec"},
      {"DB2_C60,,MY_H65", "empty token"},
      {"DB2_C60,", "empty token"},
      {"", "empty token"},
  };
  for (const auto& r : rejected) {
    std::string error;
    EXPECT_FALSE(SplitWorkloadList(r.list, &error).has_value()) << r.list;
    EXPECT_NE(error.find(r.names), std::string::npos) << error;
    EXPECT_NE(error.find(r.list), std::string::npos) << error;
  }
}

// ---- the values every input in use parses to -------------------------------

// One row per workload spec the tools and the benchmark run: every field
// as the parser before the shared grammar produced it.
struct SpecRow {
  const char* input;
  ScenarioKind kind;
  std::uint64_t pages, requests, seed, buffer;
  double write, theta;
  std::uint64_t shift, scan_every, scan_len, phase_len, hot_pages;
  bool gradual;
  std::uint64_t tenants;
};

constexpr ScenarioKind kZipf = ScenarioKind::kZipf;

const SpecRow kSpecRows[] = {
    // The seven scenario presets.
    {"zipf-hot", kZipf, 120000, 600000, 1, 2000, 0.1, 0.9, 0, 40000, 60000,
     150000, 15000, false, 4},
    {"zipf-shifted", kZipf, 120000, 600000, 1, 2000, 0.1, 0.9, 60000, 40000,
     60000, 150000, 15000, false, 4},
    {"seq-scan", ScenarioKind::kScan, 120000, 400000, 1, 2000, 0.1, 0.9, 0,
     40000, 60000, 150000, 15000, false, 4},
    {"scan-pollute", ScenarioKind::kScanMix, 120000, 800000, 1, 2000, 0.1, 0.9,
     0, 40000, 60000, 150000, 15000, false, 4},
    {"phase-abrupt", ScenarioKind::kPhase, 120000, 800000, 1, 2000, 0.1, 0.9,
     0, 40000, 60000, 150000, 15000, false, 4},
    {"phase-gradual", ScenarioKind::kPhase, 120000, 800000, 1, 2000, 0.1, 0.9,
     0, 40000, 60000, 150000, 15000, true, 4},
    {"tenant-mix4", ScenarioKind::kTenants, 160000, 800000, 1, 1500, 0.1, 0.95,
     0, 40000, 60000, 150000, 15000, false, 4},
    // The inline specs of FigurePresets().
    {"zipf:theta=0.5", kZipf, 120000, 600000, 1, 2000, 0.1, 0.5, 0, 40000,
     60000, 150000, 15000, false, 4},
    {"zipf:theta=0.7", kZipf, 120000, 600000, 1, 2000, 0.1, 0.7, 0, 40000,
     60000, 150000, 15000, false, 4},
    {"zipf:theta=0.9", kZipf, 120000, 600000, 1, 2000, 0.1, 0.9, 0, 40000,
     60000, 150000, 15000, false, 4},
    {"zipf:theta=0.99", kZipf, 120000, 600000, 1, 2000, 0.1, 0.99, 0, 40000,
     60000, 150000, 15000, false, 4},
    // benchmark/clic_bench.cc's four workloads, with the seed it appends.
    {"zipf:pages=120000,theta=0.9,buffer=2000,n=600000,seed=1", kZipf, 120000,
     600000, 1, 2000, 0.1, 0.9, 0, 40000, 60000, 150000, 15000, false, 4},
    {"zipf:pages=10000,theta=0.9,buffer=500,n=600000,seed=1", kZipf, 10000,
     600000, 1, 500, 0.1, 0.9, 0, 40000, 60000, 150000, 15000, false, 4},
    {"tenants:pages=160000,tenants=4,theta=0.95,buffer=1500,write=0.3,"
     "n=800000,seed=1",
     ScenarioKind::kTenants, 160000, 800000, 1, 1500, 0.3, 0.95, 0, 40000,
     60000, 150000, 15000, false, 4},
    {"phase:pages=120000,hot-pages=15000,phase-len=150000,buffer=2000,"
     "n=800000,seed=1",
     ScenarioKind::kPhase, 120000, 800000, 1, 2000, 0.1, 0.9, 0, 40000, 60000,
     150000, 15000, false, 4},
};

TEST(SameValuesTest, EverySpecInUseParsesToItsPinnedFields) {
  for (const SpecRow& row : kSpecRows) {
    SCOPED_TRACE(row.input);
    std::string error;
    const std::optional<WorkloadSpec> spec = ResolveWorkload(row.input, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->text, row.input);
    EXPECT_EQ(spec->kind, row.kind);
    EXPECT_EQ(spec->pages, row.pages);
    EXPECT_EQ(spec->requests, row.requests);
    EXPECT_EQ(spec->seed, row.seed);
    EXPECT_EQ(spec->buffer, row.buffer);
    EXPECT_EQ(spec->write, row.write);
    EXPECT_EQ(spec->theta, row.theta);
    EXPECT_EQ(spec->shift, row.shift);
    EXPECT_EQ(spec->scan_every, row.scan_every);
    EXPECT_EQ(spec->scan_len, row.scan_len);
    EXPECT_EQ(spec->phase_len, row.phase_len);
    EXPECT_EQ(spec->hot_pages, row.hot_pages);
    EXPECT_EQ(spec->gradual, row.gradual);
    EXPECT_EQ(spec->tenants, row.tenants);
  }
}

// A preset grid that gains an inline spec must gain a row above.
TEST(SameValuesTest, TableCoversEveryInlineSpecOfTheFigurePresets) {
  for (const sweep::FigurePreset& preset : sweep::FigurePresets()) {
    for (const std::string& trace : preset.spec.traces) {
      if (trace.find(':') == std::string::npos) continue;
      bool pinned = false;
      for (const SpecRow& row : kSpecRows) pinned = pinned || trace == row.input;
      EXPECT_TRUE(pinned) << "figure " << preset.name << ": " << trace;
    }
  }
}

std::string Describe(const FaultPlan& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu shed=%llu corrupt=%llu/%u net=%llu,%llu,%llu,%llu/"
                "%.17g",
                static_cast<unsigned long long>(p.seed),
                static_cast<unsigned long long>(p.shed_every),
                static_cast<unsigned long long>(p.corrupt_every),
                p.corrupt_flips,
                static_cast<unsigned long long>(p.net_torn_write_every),
                static_cast<unsigned long long>(p.net_partial_read_every),
                static_cast<unsigned long long>(p.net_reset_every),
                static_cast<unsigned long long>(p.net_accept_stall_every),
                p.net_accept_stall_ms);
  std::string out = buf;
  for (const auto& s : p.stalls) {
    std::snprintf(buf, sizeof(buf), " stall=%zu,%llu,%llu,%.17g", s.shard,
                  static_cast<unsigned long long>(s.after_drain),
                  static_cast<unsigned long long>(s.drains), s.ms);
    out += buf;
  }
  for (const auto& c : p.pauses) {
    std::snprintf(buf, sizeof(buf), " pause=%zu,%llu,%llu,%.17g", c.consumer,
                  static_cast<unsigned long long>(c.after_batch),
                  static_cast<unsigned long long>(c.batches), c.ms);
    out += buf;
  }
  return out;
}

// Every --fault-plan of the CI workflow and every plan the tests parse,
// with all of its fields ("net=" is torn-write, partial-read, reset and
// accept-stall, then stall-ms).
TEST(SameValuesTest, EveryFaultPlanInUseParsesToItsPinnedFields) {
  const struct {
    const char* plan;
    const char* fields;
  } rows[] = {
      {"stall:shard=0,after=3,drains=2,ms=20;"
       "pause:consumer=0,after=5,batches=1,ms=10",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,3,2,20 "
       "pause=0,5,1,10"},
      {"shed:every=5", "seed=1 shed=5 corrupt=0/1 net=0,0,0,0/1"},
      {"corrupt:every=3,flips=2;seed=9",
       "seed=9 shed=0 corrupt=3/2 net=0,0,0,0/1"},
      {"stall:shard=0,after=0,drains=100,ms=20",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,100,20"},
      {"net:torn-write=3,partial-read=5,accept-stall=2,stall-ms=2",
       "seed=1 shed=0 corrupt=0/1 net=3,5,0,2/2"},
      {"net:reset=3", "seed=1 shed=0 corrupt=0/1 net=0,0,3,0/1"},
      {"net:torn-write=3,partial-read=4",
       "seed=1 shed=0 corrupt=0/1 net=3,4,0,0/1"},
      {"stall:shard=0,after=0,drains=50,ms=10;"
       "pause:consumer=1,after=3,batches=2,ms=5",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,50,10 "
       "pause=1,3,2,5"},
      {"stall:shard=1,after=2,drains=20,ms=15",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=1,2,20,15"},
      {"stall:shard=2,after=1,drains=30,ms=10;shed:every=9",
       "seed=1 shed=9 corrupt=0/1 net=0,0,0,0/1 stall=2,1,30,10"},
      {"net:torn-write=2,partial-read=3,reset=5",
       "seed=1 shed=0 corrupt=0/1 net=2,3,5,0/1"},
      {"shed:every=5;stall:shard=0,after=3,drains=2,ms=20",
       "seed=1 shed=5 corrupt=0/1 net=0,0,0,0/1 stall=0,3,2,20"},
      {"seed=42;stall:shard=1,after=10,drains=5,ms=2.5;"
       "pause:consumer=0,after=7,batches=2,ms=0.5;shed:every=9;"
       "corrupt:every=4,flips=3",
       "seed=42 shed=9 corrupt=4/3 net=0,0,0,0/1 stall=1,10,5,2.5 "
       "pause=0,7,2,0.5"},
      {"stall:shard=0,after=2,drains=3,ms=2;stall:shard=1,after=5,drains=2,"
       "ms=1;pause:consumer=0,after=4,batches=3,ms=1",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,2,3,2 stall=1,5,2,1 "
       "pause=0,4,3,1"},
      {"shed:every=4", "seed=1 shed=4 corrupt=0/1 net=0,0,0,0/1"},
      {"corrupt:every=3,flips=2;seed=7",
       "seed=7 shed=0 corrupt=3/2 net=0,0,0,0/1"},
      {"corrupt:every=2", "seed=1 shed=0 corrupt=2/1 net=0,0,0,0/1"},
      {"corrupt:every=3", "seed=1 shed=0 corrupt=3/1 net=0,0,0,0/1"},
      {"stall:shard=5,after=0,drains=1,ms=1",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=5,0,1,1"},
      {"stall:shard=0,after=0,drains=1,ms=150",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,1,150"},
      {"stall:shard=0,after=0,drains=2,ms=150",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,2,150"},
      {"stall:shard=0,after=0,drains=4,ms=10000",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,4,10000"},
      {"stall:shard=0,after=0,drains=100000,ms=400",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,100000,400"},
      {"stall:shard=0,after=0,drains=1000000,ms=1",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,1000000,1"},
      {"stall:shard=0,after=0,drains=1000000,ms=20",
       "seed=1 shed=0 corrupt=0/1 net=0,0,0,0/1 stall=0,0,1000000,20"},
      {"net:torn-write=3,partial-read=4,accept-stall=2,stall-ms=1",
       "seed=1 shed=0 corrupt=0/1 net=3,4,0,2/1"},
      {"net:reset=2", "seed=1 shed=0 corrupt=0/1 net=0,0,2,0/1"},
  };
  for (const auto& row : rows) {
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(row.plan, &plan, &error)) << error;
    EXPECT_EQ(Describe(plan), row.fields) << row.plan;
  }
}

// ---- seeded grammar fuzzer -------------------------------------------------

// Seeded insertions, deletions and substitutions over valid inputs of
// all three grammars, each mutant fed to every parser. Nothing may crash
// or throw (ASan and UBSan builds run this too), every rejection must
// carry a one-line reason, and no accepted input may hold an '='
// followed by a space or a sign: the number rules take neither.
class GrammarFuzz {
 public:
  void Check(const std::string& input) {
    std::string error;
    Outcome(input, ResolveWorkloadToken(input, &error).has_value(), error, 0);
    FaultPlan plan;
    error.clear();
    Outcome(input, ParseFaultPlan(input, &plan, &error), error, 1);
    error.clear();
    const auto tokens = SplitWorkloadList(input, &error);
    bool resolved = tokens.has_value();
    for (std::size_t i = 0; resolved && i < tokens->size(); ++i) {
      resolved = ResolveWorkloadToken((*tokens)[i], &error).has_value();
    }
    Outcome(input, resolved, error, 2);
  }

  /// Inputs each parser accepted: token, plan, list.
  const std::array<std::size_t, 3>& accepted() const { return accepted_; }

 private:
  void Outcome(const std::string& input, bool accepted,
               const std::string& error, std::size_t parser) {
    static const char* const kNames[] = {"ResolveWorkloadToken",
                                         "ParseFaultPlan", "SplitWorkloadList"};
    if (accepted) {
      ++accepted_[parser];
      for (const char* signed_value : {"= ", "=+", "=-"}) {
        EXPECT_EQ(input.find(signed_value), std::string::npos)
            << kNames[parser] << " accepted '" << input << "'";
      }
      return;
    }
    EXPECT_FALSE(error.empty())
        << kNames[parser] << " rejected '" << input << "'";
    EXPECT_EQ(error.find('\n'), std::string::npos)
        << kNames[parser] << " rejected '" << input << "': " << error;
  }

  std::array<std::size_t, 3> accepted_{};
};

TEST(GrammarFuzzTest, MutantsNeverCrashAndRejectWithOneLine) {
  std::vector<std::string> seeds;
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    seeds.push_back(preset.spec);
  }
  for (const char* plan :
       {"stall:shard=0,after=3,drains=2,ms=20;"
        "pause:consumer=0,after=5,batches=1,ms=10",
        "shed:every=5", "corrupt:every=3,flips=2;seed=9",
        "stall:shard=0,after=0,drains=100,ms=20",
        "net:torn-write=3,partial-read=5,accept-stall=2,stall-ms=2",
        "net:reset=3", "net:torn-write=3,partial-read=4",
        "stall:shard=0,after=0,drains=50,ms=10;"
        "pause:consumer=1,after=3,batches=2,ms=5",
        "stall:shard=1,after=2,drains=20,ms=15",
        "stall:shard=2,after=1,drains=30,ms=10;shed:every=9",
        "net:torn-write=2,partial-read=3,reset=5"}) {
    seeds.push_back(plan);
  }
  seeds.push_back("DB2_C60~noise=2");
  seeds.push_back("DB2_C60+DB2_C300");

  constexpr int kMutantsPerSeed = 1000;
  Rng rng(0xC11C);
  GrammarFuzz fuzz;
  for (const std::string& seed : seeds) {
    fuzz.Check(seed);
    for (int m = 0; m < kMutantsPerSeed; ++m) fuzz.Check(Mutate(seed, rng));
  }
  // The mutants must reach every parser's accepting path too.
  for (std::size_t parser = 0; parser < 3; ++parser) {
    EXPECT_GE(fuzz.accepted()[parser], 50u) << "parser " << parser;
  }
}

}  // namespace
}  // namespace clic
