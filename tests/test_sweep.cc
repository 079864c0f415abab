#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/trace.h"
#include "sim/simulator.h"
#include "tests/synthetic_trace.h"
#include "workload/token.h"

namespace clic::sweep {
namespace {

class FixtureProvider {
 public:
  FixtureProvider() {
    traces_.emplace("synthA",
                    std::make_unique<Trace>(MakeSynthetic("synthA", 3, 4000)));
    traces_.emplace("synthB",
                    std::make_unique<Trace>(MakeSynthetic("synthB", 17, 2500)));
  }

  SweepRunner::TraceProvider Get() {
    return [this](const std::string& name) -> const Trace& {
      return *traces_.at(name);
    };
  }

  const Trace& Trace_(const std::string& name) const {
    return *traces_.at(name);
  }

 private:
  std::map<std::string, std::unique_ptr<Trace>> traces_;
};

SweepSpec TestSpec() {
  SweepSpec spec;
  spec.traces = {"synthA", "synthB"};
  spec.policies = {PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kOpt,
                   PolicyKind::kClic};
  spec.cache_sizes = {32, 96};
  ClicOptions exact;
  exact.window = 500;  // several windows complete within 2500 requests
  exact.outqueue_per_page = 2.0;
  ClicOptions top1 = exact;
  top1.tracker = TrackerKind::kSpaceSaving;
  top1.top_k = 1;
  spec.variants = {{"exact", exact}, {"top1", top1}};
  return spec;
}

TEST(ExpandGridTest, FixedNestingOrderAndDenseIndices) {
  SweepSpec spec;
  spec.traces = {"t0", "t1"};
  spec.policies = {PolicyKind::kLru, PolicyKind::kClic, PolicyKind::kArc};
  spec.cache_sizes = {10, 20, 30};
  ClicOptions short_window;
  short_window.window = 7;
  ClicOptions top3;
  top3.tracker = TrackerKind::kSpaceSaving;
  top3.top_k = 3;
  spec.variants = {{"w7", short_window}, {"top3", top3}, {"paper", {}}};
  const std::vector<SweepPoint> points = ExpandGrid(spec);
  // Per trace: LRU and ARC once, CLIC once per variant, x 3 caches.
  ASSERT_EQ(points.size(), 2u * (1 + 3 + 1) * 3);
  std::size_t i = 0;
  for (const std::string& trace : spec.traces) {
    for (PolicyKind policy : spec.policies) {
      const bool clic = policy == PolicyKind::kClic;
      for (std::size_t v = 0; v < (clic ? spec.variants.size() : 1); ++v) {
        for (std::size_t cache : spec.cache_sizes) {
          SCOPED_TRACE("point " + std::to_string(i));
          EXPECT_EQ(points[i].index, i);
          EXPECT_EQ(points[i].trace, trace);
          EXPECT_EQ(points[i].policy, policy);
          EXPECT_EQ(points[i].cache_pages, cache);
          const ClicVariant expected = clic ? spec.variants[v] : ClicVariant{};
          EXPECT_EQ(points[i].variant, expected.label);
          EXPECT_EQ(points[i].clic.window, expected.options.window);
          EXPECT_EQ(points[i].clic.tracker, expected.options.tracker);
          EXPECT_EQ(points[i].clic.top_k, expected.options.top_k);
          ++i;
        }
      }
    }
  }
}

TEST(FigureSpecTest, KnownFiguresHaveExpectedGridShapes) {
  const auto fig6 = FigureSpec("6");
  ASSERT_TRUE(fig6.has_value());
  EXPECT_EQ(fig6->traces,
            (std::vector<std::string>{"DB2_C60", "DB2_C300", "DB2_C540"}));
  EXPECT_EQ(fig6->policies.size(), 5u);
  EXPECT_EQ(fig6->cache_sizes,
            (std::vector<std::size_t>{6'000, 12'000, 18'000, 24'000,
                                      30'000}));
  EXPECT_EQ(ExpandGrid(*fig6).size(), 75u);

  const auto fig7 = FigureSpec("7");
  ASSERT_TRUE(fig7.has_value());
  EXPECT_EQ(ExpandGrid(*fig7).size(), 75u);

  const auto fig8 = FigureSpec("8");
  ASSERT_TRUE(fig8.has_value());
  EXPECT_EQ(fig8->traces, (std::vector<std::string>{"MY_H65", "MY_H98"}));
  EXPECT_EQ(ExpandGrid(*fig8).size(), 30u);

  const auto ablation = FigureSpec("ablation");
  ASSERT_TRUE(ablation.has_value());
  EXPECT_EQ(ablation->policies.size(), 7u);
  EXPECT_EQ(ExpandGrid(*ablation).size(), 7u);

  const auto fig9 = FigureSpec("9");
  ASSERT_TRUE(fig9.has_value());
  EXPECT_EQ(fig9->variants.size(), 9u);  // k = 1..128, then exact
  EXPECT_EQ(ExpandGrid(*fig9).size(), 54u);

  const auto fig10 = FigureSpec("10");
  ASSERT_TRUE(fig10.has_value());
  EXPECT_EQ(fig10->traces.size(), 12u);  // 3 traces x T = 0..3
  EXPECT_EQ(fig10->traces[1], "DB2_C60~noise=1");
  EXPECT_TRUE(fig10->variants[1].options.generalize);
  EXPECT_EQ(ExpandGrid(*fig10).size(), 24u);

  const auto fig11 = FigureSpec("11");
  ASSERT_TRUE(fig11.has_value());
  EXPECT_EQ(fig11->traces[0], "DB2_C60+DB2_C300+DB2_C540");
  EXPECT_EQ(ExpandGrid(*fig11).size(), 8u);

  const auto phase = FigureSpec("phase-shift");
  ASSERT_TRUE(phase.has_value());
  // 2 traces x (LRU, ARC, TQ + 3 CLIC variants) x 3 caches.
  EXPECT_EQ(ExpandGrid(*phase).size(), 36u);

  EXPECT_FALSE(FigureSpec("12").has_value());
  EXPECT_FALSE(FigureSpec("").has_value());
}

TEST(FigureSpecTest, PresetTableMatchesResolvableFigures) {
  // Every preset in the one table resolves through FigureSpec, names
  // only workload tokens the trace cache's resolver accepts, and labels
  // its CLIC variants with distinct comma-free names.
  for (const FigurePreset& preset : FigurePresets()) {
    const auto spec = FigureSpec(preset.name);
    ASSERT_TRUE(spec.has_value()) << "preset '" << preset.name
                                  << "' does not resolve";
    EXPECT_FALSE(spec->traces.empty()) << preset.name;
    EXPECT_FALSE(spec->policies.empty()) << preset.name;
    EXPECT_FALSE(spec->cache_sizes.empty()) << preset.name;
    EXPECT_FALSE(spec->variants.empty()) << preset.name;
    for (const std::string& trace : spec->traces) {
      std::string error;
      EXPECT_TRUE(ResolveWorkloadToken(trace, &error).has_value())
          << "figure '" << preset.name << "' trace '" << trace
          << "': " << error;
    }
    for (std::size_t v = 0; v < spec->variants.size(); ++v) {
      const std::string& label = spec->variants[v].label;
      EXPECT_EQ(label.find(','), std::string::npos) << label;
      for (std::size_t w = 0; w < v; ++w) {
        EXPECT_NE(label, spec->variants[w].label) << preset.name;
      }
    }
  }
  const auto scan = FigureSpec("scan-pollution");
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->traces,
            (std::vector<std::string>{"zipf-hot", "scan-pollute"}));
  EXPECT_EQ(scan->cache_sizes.size(), 5u);  // the paper's cache axis
}

TEST(SweepRunnerTest, MatchesSequentialSimulateOnEveryPoint) {
  FixtureProvider fixture;
  const SweepSpec spec = TestSpec();
  SweepRunner runner(fixture.Get(), 4);
  const std::vector<SweepRow> rows = runner.Run(spec);
  const std::vector<SweepPoint> points = ExpandGrid(spec);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i) + " " + points[i].trace + "/" +
                 PolicyName(points[i].policy) + "/" +
                 std::to_string(points[i].cache_pages));
    EXPECT_EQ(rows[i].point.trace, points[i].trace);
    EXPECT_EQ(rows[i].point.policy, points[i].policy);
    EXPECT_EQ(rows[i].point.variant, points[i].variant);
    EXPECT_EQ(rows[i].point.cache_pages, points[i].cache_pages);
    const Trace& trace = fixture.Trace_(points[i].trace);
    const auto policy = MakePolicy(points[i].policy, points[i].cache_pages,
                                   &trace, points[i].clic);
    const SimResult expected = Simulate(trace, *policy);
    EXPECT_EQ(ResultMismatch(rows[i].result, expected), "");
    EXPECT_GE(rows[i].wall_seconds, 0.0);
  }
}

TEST(SweepRunnerTest, RowOrderAndValuesStableAcrossThreadCounts) {
  FixtureProvider fixture;
  const SweepSpec spec = TestSpec();
  const std::vector<SweepRow> baseline =
      SweepRunner(fixture.Get(), 1).Run(spec);
  for (unsigned threads : {2u, 5u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<SweepRow> rows =
        SweepRunner(fixture.Get(), threads).Run(spec);
    ASSERT_EQ(rows.size(), baseline.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].point.index, baseline[i].point.index);
      EXPECT_EQ(rows[i].point.trace, baseline[i].point.trace);
      EXPECT_EQ(rows[i].point.policy, baseline[i].point.policy);
      EXPECT_EQ(rows[i].point.variant, baseline[i].point.variant);
      EXPECT_EQ(rows[i].point.cache_pages, baseline[i].point.cache_pages);
      EXPECT_EQ(ResultMismatch(rows[i].result, baseline[i].result), "");
    }
  }
}

TEST(SweepRunnerTest, ProviderExceptionPropagatesAtAnyThreadCount) {
  FixtureProvider fixture;
  SweepSpec spec = TestSpec();
  spec.traces.push_back("no-such-trace");  // FixtureProvider map::at throws
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_THROW(SweepRunner(fixture.Get(), threads).Run(spec),
                 std::out_of_range);
  }
}

TEST(SweepRunnerTest, EmptyGridYieldsNoRows) {
  FixtureProvider fixture;
  SweepSpec spec;  // no traces/policies/caches
  EXPECT_TRUE(SweepRunner(fixture.Get(), 4).Run(spec).empty());
}

TEST(SweepFormatTest, CsvRowMatchesHeaderShape) {
  SweepRow row;
  row.point.trace = "synthA";
  row.point.policy = PolicyKind::kClic;
  row.point.variant = "k=4";
  row.point.cache_pages = 96;
  row.result.total = {/*reads=*/100, /*writes=*/40, /*read_hits=*/40,
                      /*write_hits=*/10};
  row.result.per_client[0] = {60, 30, 0, 8};
  row.result.per_client[1] = {40, 10, 0, 2};
  row.wall_seconds = 0.125;

  const std::string header = RowOf(row).CsvHeader();
  const std::string line = RowOf(row).Csv();
  auto count_commas = [](const std::string& s) {
    std::size_t n = 0;
    for (char c : s) n += c == ',';
    return n;
  };
  EXPECT_EQ(count_commas(header), count_commas(line));
  EXPECT_EQ(line.rfind("synthA,CLIC,k=4,96,140,100,40,40,10,", 0), 0u)
      << line;
  EXPECT_NE(line.find("0=60:0:30:8;1=40:0:10:2"), std::string::npos) << line;
}

// One field list prints all three forms: the JSON keys follow the CSV
// columns, and a JSON-only field stays out of the CSV.
TEST(SweepFormatTest, RowPrintsOneFieldListThreeWays) {
  SimResult result;
  result.per_client[2] = {/*reads=*/3, /*writes=*/1, /*read_hits=*/2,
                          /*write_hits=*/0};
  Row row;
  row.Text("name", "a,b")
      .Count("n", 7)
      .Real("ratio", 0.5)
      .Flag("on", true)
      .JsonOnly("extra", "[1,2]")
      .PerClient(result);
  EXPECT_EQ(row.CsvHeader(), "name,n,ratio,on,per_client");
  EXPECT_EQ(row.Csv(), "\"a,b\",7,0.5,1,2=3:2:1:0");
  EXPECT_EQ(row.Json(),
            "{\"name\":\"a,b\",\"n\":7,\"ratio\":0.5,\"on\":true,"
            "\"extra\":[1,2],\"per_client\":{\"2\":{\"reads\":3,"
            "\"read_hits\":2,\"writes\":1,\"write_hits\":0}}}");
}

TEST(SweepFormatTest, CsvFieldAppliesRfc4180Quoting) {
  EXPECT_EQ(CsvField("plain_name"), "plain_name");
  EXPECT_EQ(CsvField(""), "");
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvField("line\nbreak"), "\"line\nbreak\"");
}

// Regression: a trace name containing a comma or quote used to be
// emitted raw, shifting every later column of the row.
TEST(SweepFormatTest, CsvRowSurvivesHostileTraceName) {
  SweepRow row;
  row.point.trace = "evil,\"trace\"";
  row.point.policy = PolicyKind::kLru;
  row.point.cache_pages = 8;
  row.result.total = {4, 0, 2, 0};
  const std::string line = RowOf(row).Csv();
  EXPECT_EQ(line.rfind("\"evil,\"\"trace\"\"\",LRU,,8,4,4,0,2,0,", 0), 0u)
      << line;
  // Commas outside quoted fields must match the header's column count.
  auto unquoted_commas = [](const std::string& s) {
    std::size_t n = 0;
    bool quoted = false;
    for (char c : s) {
      if (c == '"') quoted = !quoted;
      n += !quoted && c == ',';
    }
    return n;
  };
  auto plain_commas = [](const std::string& s) {
    std::size_t n = 0;
    for (char c : s) n += c == ',';
    return n;
  };
  EXPECT_EQ(unquoted_commas(line), plain_commas(RowOf(row).CsvHeader()));
}

TEST(SweepFormatTest, JsonEscapesHostileTraceName) {
  SweepRow row;
  row.point.trace = "quo\"te\\back";
  row.point.policy = PolicyKind::kLru;
  const std::string json = RowOf(row).Json();
  EXPECT_NE(json.find("\"trace\":\"quo\\\"te\\\\back\""), std::string::npos)
      << json;
}

TEST(SweepFormatTest, JsonRowCarriesAllFields) {
  SweepRow row;
  row.point.trace = "synthB";
  row.point.policy = PolicyKind::kClic;
  row.point.variant = "W=20000/r=0.2";
  row.point.cache_pages = 32;
  row.result.total = {10, 5, 4, 1};
  row.result.per_client[3] = {10, 4, 5, 1};
  const std::string json = RowOf(row).Json();
  for (const char* key :
       {"\"trace\":\"synthB\"", "\"policy\":\"CLIC\"",
        "\"variant\":\"W=20000/r=0.2\"", "\"cache_pages\":32",
        "\"requests\":15", "\"reads\":10", "\"writes\":5", "\"read_hits\":4",
        "\"write_hits\":1", "\"read_hit_ratio\":", "\"write_hit_ratio\":",
        "\"wall_seconds\":", "\"per_client\":{\"3\":{\"reads\":10"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

}  // namespace
}  // namespace clic::sweep
