#include "sweep/trace_cache.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "sim/trace_ops.h"
#include "workload/trace_factory.h"

namespace clic::sweep {
namespace {

constexpr std::uint64_t kCap = 1500;  // keep generation sub-second

std::string FreshDir(const std::string& tag) {
  // Distinct directory per (test, process) so caches never observe each
  // other's files — also across repeated runs from different build
  // trees; the cache itself creates the directory.
  return ::testing::TempDir() + "clic_trace_cache_test_" + tag + "_" +
         std::to_string(::getpid());
}

TEST(TraceCacheTest, ConcurrentGetOfSameTraceYieldsOneInstance) {
  TraceCache cache(FreshDir("same"), kCap);
  constexpr int kThreads = 8;
  std::vector<const Trace*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      seen[t] = &cache.Get("DB2_C60");
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t << " got a different copy";
  }
  EXPECT_EQ(seen[0]->name, "DB2_C60");
  EXPECT_LE(seen[0]->size(), kCap);
  EXPECT_GT(seen[0]->size(), 0u);
}

TEST(TraceCacheTest, ConcurrentGetOfDistinctTracesIsCorrect) {
  TraceCache cache(FreshDir("distinct"), kCap);
  const std::vector<std::string> names = {"DB2_C60", "DB2_C300", "MY_H65",
                                          "MY_H98"};
  std::vector<const Trace*> seen(names.size(), nullptr);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&cache, &names, &seen, i] {
      seen[i] = &cache.Get(names[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_NE(seen[i], nullptr);
    EXPECT_EQ(seen[i]->name, names[i]);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(seen[i], seen[j]);
    }
  }
}

TEST(TraceCacheTest, RepeatGetReturnsSameReferenceWithoutRegeneration) {
  TraceCache cache(FreshDir("repeat"), kCap);
  const Trace& first = cache.Get("DB2_H80");
  const Trace& second = cache.Get("DB2_H80");
  EXPECT_EQ(&first, &second);
}

TEST(TraceCacheTest, SecondCacheInstanceLoadsIdenticalTraceFromDisk) {
  const std::string dir = FreshDir("disk");
  TraceCache writer(dir, kCap);
  const Trace& generated = writer.Get("MY_H65");

  // The on-disk file exists under the versioned cache name.
  const std::string path = dir + "/MY_H65_" + std::to_string(kCap) + "_g" +
                           std::to_string(kTraceGeneratorVersion) + ".trc";
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0) << path;
  EXPECT_GT(st.st_size, 0);

  TraceCache reader(dir, kCap);
  const Trace& loaded = reader.Get("MY_H65");
  ASSERT_EQ(loaded.size(), generated.size());
  ASSERT_EQ(loaded.hints->size(), generated.hints->size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.requests[i].page, generated.requests[i].page);
    EXPECT_EQ(loaded.requests[i].hint_set, generated.requests[i].hint_set);
    EXPECT_EQ(loaded.requests[i].client, generated.requests[i].client);
    EXPECT_EQ(loaded.requests[i].op, generated.requests[i].op);
    EXPECT_EQ(loaded.requests[i].write_kind, generated.requests[i].write_kind);
  }
}

TEST(TraceCacheTest, CollectsStaleTempFilesButSparesFreshOnes) {
  const std::string dir = FreshDir("tmpclean");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  auto touch = [&](const std::string& name) {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("orphan", f);
    std::fclose(f);
  };
  touch("DB2_C60_1500_g1.trc.tmp.123.0");  // crashed saver, hours old
  touch("MY_H65_1500_g1.trc.tmp.456.2");   // in-flight saver, fresh
  const std::time_t two_hours_ago = std::time(nullptr) - 7200;
  const struct utimbuf old_times = {two_hours_ago, two_hours_ago};
  ASSERT_EQ(
      ::utime((dir + "/DB2_C60_1500_g1.trc.tmp.123.0").c_str(), &old_times),
      0);

  TraceCache cache(dir, kCap);
  cache.Get("DB2_C60");  // first Fill triggers the cleanup sweep

  struct stat st{};
  EXPECT_NE(::stat((dir + "/DB2_C60_1500_g1.trc.tmp.123.0").c_str(), &st), 0)
      << "stale temp file should have been collected";
  EXPECT_EQ(::stat((dir + "/MY_H65_1500_g1.trc.tmp.456.2").c_str(), &st), 0)
      << "fresh temp file must not be disturbed";
}

// The age threshold is the whole point of the collector: a *live*
// racing writer's temp file (another bench process mid-SaveTrace) is
// seconds old and must survive; only genuinely orphaned files go.
TEST(TraceCacheTest, CollectStaleTempFilesHonorsTheAgeThreshold) {
  const std::string dir = FreshDir("tmpage");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  auto touch_with_age = [&](const std::string& name, std::time_t age) {
    const std::string path = dir + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("x", f);
    std::fclose(f);
    if (age > 0) {
      const std::time_t then = std::time(nullptr) - age;
      const struct utimbuf times = {then, then};
      ASSERT_EQ(::utime(path.c_str(), &times), 0);
    }
  };
  touch_with_age("a.trc.tmp.1.0", 0);  // just written: a live writer
  touch_with_age("b.trc.tmp.2.0", kStaleTempFileAgeSeconds - 30);  // young
  touch_with_age("c.trc.tmp.3.0", kStaleTempFileAgeSeconds + 60);  // orphan
  touch_with_age("d_not_a_temp.trc", kStaleTempFileAgeSeconds + 60);

  EXPECT_EQ(CollectStaleTempFiles(dir), 1u) << "only the old orphan goes";

  struct stat st{};
  EXPECT_EQ(::stat((dir + "/a.trc.tmp.1.0").c_str(), &st), 0);
  EXPECT_EQ(::stat((dir + "/b.trc.tmp.2.0").c_str(), &st), 0);
  EXPECT_NE(::stat((dir + "/c.trc.tmp.3.0").c_str(), &st), 0);
  // Non-temp files are never candidates, however old.
  EXPECT_EQ(::stat((dir + "/d_not_a_temp.trc").c_str(), &st), 0);

  // Idempotent: nothing stale remains.
  EXPECT_EQ(CollectStaleTempFiles(dir), 0u);
  EXPECT_EQ(CollectStaleTempFiles(dir + "/no_such_dir"), 0u);
}

// CLIC_BENCH_REQUESTS takes the unsigned rule (common/text_parse.h):
// a sign or a leading space falls back to the default, loudly, instead
// of wrapping ("-5" read as 2^64 - 5) or being skipped.
TEST(RequestCapTest, SignedOrSpaceLedValuesFallBackToTheDefault) {
  const char* saved = std::getenv("CLIC_BENCH_REQUESTS");
  const std::string restore = saved != nullptr ? saved : "";
  for (const char* bad : {"-5", " 5", "+5", "5 ", "0", "banana",
                          "18446744073709551616"}) {
    ::setenv("CLIC_BENCH_REQUESTS", bad, 1);
    EXPECT_EQ(RequestCapFromEnv(), 2'000'000u) << "'" << bad << "'";
  }
  ::setenv("CLIC_BENCH_REQUESTS", "5", 1);
  EXPECT_EQ(RequestCapFromEnv(), 5u);
  if (saved != nullptr) {
    ::setenv("CLIC_BENCH_REQUESTS", restore.c_str(), 1);
  } else {
    ::unsetenv("CLIC_BENCH_REQUESTS");
  }
}

TEST(TraceCacheDeathTest, UnknownTraceNameExits) {
  TraceCache cache(FreshDir("unknown"), kCap);
  EXPECT_EXIT(cache.Get("NO_SUCH_TRACE"), ::testing::ExitedWithCode(1),
              "unknown workload");
  // Malformed derived tokens fail closed too, naming the token.
  EXPECT_EXIT(cache.Get("NOPE~noise=1"), ::testing::ExitedWithCode(1),
              "NOPE~noise=1");
  EXPECT_EXIT(cache.Get("DB2_C60~noise=9"), ::testing::ExitedWithCode(1),
              "DB2_C60~noise=9");
  EXPECT_EXIT(cache.Get("DB2_C60++DB2_C300"), ::testing::ExitedWithCode(1),
              "empty '\\+' component");
}

TEST(TraceCacheTest, ResolvesScenarioPresetsAndInlineSpecs) {
  TraceCache cache(FreshDir("scenario"), kCap);
  const Trace& preset = cache.Get("scan-pollute");
  EXPECT_EQ(preset.name, "scan-pollute");
  EXPECT_EQ(preset.size(), kCap);  // capped like the named traces
  const std::string spec = "zipf:pages=20000,buffer=200,n=1000";
  const Trace& inline_trace = cache.Get(spec);
  EXPECT_EQ(inline_trace.name, spec);
  EXPECT_EQ(inline_trace.size(), 1'000u);  // below the cap: spec length
  // Second Get returns the same cached instance.
  EXPECT_EQ(&cache.Get(spec), &inline_trace);
}

void ExpectSameRequests(const Trace& actual, const Trace& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(actual.hints->size(), expected.hints->size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const Request& a = actual.requests[i];
    const Request& e = expected.requests[i];
    ASSERT_TRUE(a.page == e.page && a.hint_set == e.hint_set &&
                a.client == e.client && a.op == e.op &&
                a.write_kind == e.write_kind)
        << "request " << i;
    ASSERT_TRUE(actual.hints->Get(a.hint_set) ==
                expected.hints->Get(e.hint_set))
        << "request " << i;
  }
}

// Figure 10's noise seeds (0xF16 + T, domain 10, Zipf z = 1) live in
// the token, so the grid's rows match the published noise injection.
TEST(TraceCacheTest, NoiseTokenMatchesInjectNoiseHints) {
  TraceCache cache(FreshDir("noise"), kCap);
  const Trace& noisy = cache.Get("DB2_C60~noise=2");
  EXPECT_EQ(noisy.name, "DB2_C60~noise=2");
  const Trace expected = InjectNoiseHints(cache.Get("DB2_C60"), 2, 10, 1.0,
                                          0xF16 + 2);
  EXPECT_GT(noisy.hints->size(), cache.Get("DB2_C60").hints->size());
  ExpectSameRequests(noisy, expected);
}

TEST(TraceCacheTest, InterleaveTokenMatchesInterleaveOfItsParts) {
  TraceCache cache(FreshDir("interleave"), kCap);
  const std::string token = "DB2_C60+scan-pollute+DB2_C60~noise=1";
  const Trace& merged = cache.Get(token);
  EXPECT_EQ(merged.name, token);
  const Trace expected = Interleave(
      "expected", {&cache.Get("DB2_C60"), &cache.Get("scan-pollute"),
                   &cache.Get("DB2_C60~noise=1")});
  EXPECT_EQ(merged.size(), 3 * kCap);  // parts are capped, not the sum
  ExpectSameRequests(merged, expected);
}

}  // namespace
}  // namespace clic::sweep
