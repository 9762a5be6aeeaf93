// Unit tests for util: strings, CSV, flags, RNG, timers, table printing,
// JSON parsing, Status, the shared thread pool, and the LRU cache.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/lru_cache.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace bundlemine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\r\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e3 "), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("4.2").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(FormatDuration(0.0000005), "0.5 us");
  EXPECT_EQ(FormatDuration(0.012), "12.0 ms");
  EXPECT_EQ(FormatDuration(2.5), "2.50 s");
  EXPECT_EQ(FormatDuration(180.0), "3.0 min");
}

TEST(Csv, RoundTripWithCommentsSkipped) {
  std::string path = TempPath("bundlemine_csv_test.csv");
  ASSERT_TRUE(WriteCsv(path, {{"a", "b"}, {"1", "2"}}));
  // Append a comment and a blank line by hand.
  {
    FILE* f = std::fopen(path.c_str(), "a");
    std::fputs("# comment\n\n3,4\n", f);
    std::fclose(f);
  }
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(ReadCsv(path, &rows));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2], (std::vector<std::string>{"3", "4"}));
  std::filesystem::remove(path);
}

TEST(Csv, MissingFileFails) {
  std::vector<std::vector<std::string>> rows;
  EXPECT_FALSE(ReadCsv("/nonexistent/path/data.csv", &rows));
}

TEST(Flags, ParsesAllForms) {
  FlagSet flags;
  flags.Define("alpha", "1.0", "");
  flags.Define("name", "x", "");
  flags.Define("verbose", "false", "");
  flags.Define("count", "3", "");
  const char* argv[] = {"prog", "--alpha=2.5", "--name", "foo", "--verbose"};
  flags.Parse(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha"), 2.5);
  EXPECT_EQ(flags.GetString("name"), "foo");
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetInt("count"), 3);  // Untouched default.
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(456);
  bool all_equal = true;
  bool any_diff_seed_mismatch = false;
  for (int i = 0; i < 100; ++i) {
    std::uint32_t va = a.NextU32();
    std::uint32_t vb = b.NextU32();
    std::uint32_t vc = c.NextU32();
    if (va != vb) all_equal = false;
    if (va != vc) any_diff_seed_mismatch = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_mismatch);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU32(10), 10u);
    int v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanIsHalf) {
  Rng rng(99);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(5);
  std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Categorical(weights) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / 20000.0, 0.75, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ZipfSampler, RanksAreSkewed) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(23);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
  // Rank 0 should get roughly 1/H(100) ≈ 19% of the mass.
  EXPECT_NEAR(counts[0] / 50000.0, 0.19, 0.03);
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  double first = t.Seconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.Seconds(), first);
  t.Reset();
  EXPECT_LT(t.Seconds(), 1.0);
}

TEST(TablePrinter, WritesCsv) {
  TablePrinter table("demo");
  table.SetHeader({"col1", "col2"});
  table.AddRow({"a", "1"});
  table.AddRow({"b", "2"});
  std::string path = TempPath("bundlemine_table_test.csv");
  ASSERT_TRUE(table.WriteCsvFile(path));
  std::vector<std::vector<std::string>> rows;
  ASSERT_TRUE(ReadCsv(path, &rows));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "col1");
  EXPECT_EQ(rows[2][1], "2");
  std::filesystem::remove(path);
}

TEST(TablePrinter, EmptyPathReturnsFalse) {
  TablePrinter table("");
  EXPECT_FALSE(table.WriteCsvFile(""));
}

TEST(JsonParse, ScalarsPreserveKinds) {
  EXPECT_EQ(JsonParse("null")->kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(JsonParse("true")->AsBool());
  EXPECT_FALSE(JsonParse("false")->AsBool());
  EXPECT_EQ(JsonParse("42")->AsInt(), 42);
  EXPECT_EQ(JsonParse("-7")->AsInt(), -7);
  EXPECT_EQ(JsonParse("42")->kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(JsonParse("42.0")->kind(), JsonValue::Kind::kDouble);
  EXPECT_DOUBLE_EQ(JsonParse("-0.125")->AsDouble(), -0.125);
  EXPECT_DOUBLE_EQ(JsonParse("1e6")->AsDouble(), 1e6);
  EXPECT_EQ(JsonParse("\"hi \\\"there\\\"\\n\"")->AsString(), "hi \"there\"\n");
  EXPECT_EQ(JsonParse("\"\\u0007\"")->AsString(), "\a");
}

TEST(JsonParse, StructuresAndKeyOrder) {
  std::optional<JsonValue> doc =
      JsonParse("{\"z\": [1, 2.5, \"x\"], \"a\": {\"nested\": true}}");
  ASSERT_TRUE(doc);
  ASSERT_EQ(doc->size(), 2u);
  // Insertion order preserved: "z" stays first even though "a" sorts lower.
  EXPECT_EQ(doc->members()[0].first, "z");
  EXPECT_EQ(doc->members()[1].first, "a");
  const JsonValue* z = doc->FindMember("z");
  ASSERT_NE(z, nullptr);
  ASSERT_EQ(z->size(), 3u);
  EXPECT_EQ(z->at(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(z->at(1).AsDouble(), 2.5);
  EXPECT_EQ(z->at(2).AsString(), "x");
  EXPECT_TRUE(doc->FindMember("a")->FindMember("nested")->AsBool());
  EXPECT_EQ(doc->FindMember("missing"), nullptr);
}

TEST(JsonParse, RoundTripsItsOwnDump) {
  JsonValue doc = JsonValue::Object();
  doc.Set("name", JsonValue::Str("θ sweep \"quoted\"\n"));
  doc.Set("count", JsonValue::Int(-3));
  doc.Set("ratio", JsonValue::Double(0.30000000000000004));
  JsonValue values = JsonValue::Array();
  values.Add(JsonValue::Double(-0.05));
  values.Add(JsonValue::Double(5.0));
  values.Add(JsonValue::Null());
  doc.Set("values", std::move(values));
  doc.Set("empty_array", JsonValue::Array());
  doc.Set("empty_object", JsonValue::Object());

  for (int indent : {0, 2}) {
    std::string text = doc.Dump(indent);
    std::string error;
    std::optional<JsonValue> parsed = JsonParse(text, &error);
    ASSERT_TRUE(parsed) << error;
    EXPECT_EQ(parsed->Dump(indent), text);
  }
}

TEST(JsonParse, DiagnosticsNameTheProblem) {
  std::string error;
  EXPECT_FALSE(JsonParse("", &error));
  EXPECT_FALSE(JsonParse("{\"a\": 1,}", &error));
  EXPECT_FALSE(JsonParse("[1 2]", &error));
  EXPECT_NE(error.find("','"), std::string::npos);
  EXPECT_FALSE(JsonParse("{\"a\": 1} trailing", &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_FALSE(JsonParse("{\"a\": 1, \"a\": 2}", &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_FALSE(JsonParse("\"unterminated", &error));
  EXPECT_FALSE(JsonParse("nulL", &error));
  EXPECT_FALSE(JsonParse("1.2.3", &error));
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status not_found = Status::NotFound("no such thing");
  EXPECT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.code(), StatusCode::kNotFound);
  EXPECT_EQ(not_found.ToString(), "NOT_FOUND: no such thing");
  EXPECT_EQ(Status::InvalidArgument("x").ToString(), "INVALID_ARGUMENT: x");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  StatusOr<int> bad(Status::InvalidArgument("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // Move-out keeps non-copyable payloads usable.
  StatusOr<std::unique_ptr<int>> owner(std::make_unique<int>(5));
  std::unique_ptr<int> taken = std::move(owner).value();
  EXPECT_EQ(*taken, 5);
}

// Runs one job of `width` on the shared pool and reports whether every
// index ran exactly once, every slot stayed below the width, and slot 0 —
// and only slot 0 — ran on the calling thread. `nested` starts a width-3
// job from inside index 0.
bool RunCheckedJob(std::size_t n, int width, bool nested) {
  std::vector<std::atomic<int>> hits(n);
  std::atomic<bool> ok{true};
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::Shared().ParallelFor(n, width, [&](std::size_t index, int slot) {
    hits[index].fetch_add(1, std::memory_order_relaxed);
    if (slot < 0 || slot >= width) ok = false;
    if ((slot == 0) != (std::this_thread::get_id() == caller)) ok = false;
    if (nested && index == 0 && !RunCheckedJob(n, 3, false)) ok = false;
  });
  for (const std::atomic<int>& h : hits) {
    if (h.load() != 1) ok = false;
  }
  return ok;
}

TEST(ThreadPool, ConcurrentAndNestedJobsRunEveryIndexOnce) {
  constexpr int kSubmitters = 4;
  std::vector<char> ok(kSubmitters, 0);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([t, &ok] {
      bool all = true;
      for (int round = 0; round < 20; ++round) {
        for (int width : {1, 2, 4}) {
          all = RunCheckedJob(1000, width, t == 0 && width == 4) && all;
        }
      }
      ok[static_cast<std::size_t>(t)] = all ? 1 : 0;
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (int t = 0; t < kSubmitters; ++t) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << "submitter " << t;
  }
}

TEST(ThreadPool, ExceptionReachesTheCallerOnceTheJobDrains) {
  for (int width : {1, 4}) {
    EXPECT_THROW(ThreadPool::Shared().ParallelFor(
                     100, width,
                     [](std::size_t index, int /*slot*/) {
                       if (index == 37) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
  }
  EXPECT_TRUE(RunCheckedJob(1000, 4, false));  // The pool still serves jobs.
}

TEST(LruCache, ConcurrentAskersOfOneKeyComputeOnce) {
  constexpr int kAskers = 8;
  LruCache<int> cache(4);
  std::latch arrived(kAskers);
  std::atomic<int> computes{0};
  std::vector<int> values(kAskers, 0);
  std::vector<std::thread> askers;
  for (int t = 0; t < kAskers; ++t) {
    askers.emplace_back([&, t] {
      arrived.count_down();
      values[static_cast<std::size_t>(t)] =
          cache.GetOrCompute("ns", "key", [&] {
            // Every asker is in flight before the leader lands.
            arrived.wait();
            ++computes;
            return 42;
          });
    });
  }
  for (std::thread& asker : askers) asker.join();
  EXPECT_EQ(computes.load(), 1);
  for (int value : values) EXPECT_EQ(value, 42);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kAskers - 1);  // Waiters count as hits.
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruCache, ColdComputeNeverBlocksAnotherKey) {
  LruCache<int> cache(4);
  bool hit = false;
  cache.GetOrCompute("ns", "warm", [] { return 1; }, &hit);
  EXPECT_FALSE(hit);

  // Key "cold" computes until released; meanwhile a hit on "warm" and a
  // miss on a third key both complete. Holding the lock through a compute
  // would deadlock here rather than merely slow down.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread cold([&] {
    cache.GetOrCompute("ns", "cold", [&] {
      started.set_value();
      released.wait();
      return 2;
    });
  });
  started.get_future().wait();
  EXPECT_EQ(cache.GetOrCompute("ns", "warm", [] { return -1; }, &hit), 1);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.GetOrCompute("other", "key", [] { return 3; }, &hit), 3);
  EXPECT_FALSE(hit);
  release.set_value();
  cold.join();
  EXPECT_EQ(cache.GetOrCompute("ns", "cold", [] { return -1; }, &hit), 2);
  EXPECT_TRUE(hit);
}

TEST(LruCache, ThrowingLeaderReleasesWaitersAndCachesNothing) {
  LruCache<int> cache(4);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread leader([&] {
    EXPECT_THROW(cache.GetOrCompute("ns", "key",
                                    [&]() -> int {
                                      started.set_value();
                                      released.wait();
                                      throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
  });
  started.get_future().wait();
  // The waiter either waits on the failing flight and retries, or arrives
  // after it; both ways it must compute the value itself.
  std::thread waiter([&] {
    EXPECT_EQ(cache.GetOrCompute("ns", "key", [] { return 7; }), 7);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  leader.join();
  waiter.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruCache, CapacityZeroDisablesCaching) {
  LruCache<int> cache(0);
  int computes = 0;
  for (int i = 0; i < 3; ++i) {
    cache.GetOrCompute("ns", "key", [&] { return ++computes; });
  }
  EXPECT_EQ(computes, 3);
  cache.Upsert("ns", "key", [](int& value) { value = 5; });
  EXPECT_FALSE(cache.Visit("ns", "key", [](int&) { return true; }));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(LruCache, EvictsLeastRecentlyUsedAndUpdatesInPlace) {
  LruCache<int> cache(2);
  cache.Upsert("ns", "a", [](int& value) { value = 1; });
  cache.Upsert("ns", "b", [](int& value) { value = 2; });
  EXPECT_TRUE(cache.Visit("ns", "a", [](int& value) { return value == 1; }));
  cache.Upsert("ns", "c", [](int& value) { value = 3; });  // Evicts "b".
  EXPECT_FALSE(cache.Visit("ns", "b", [](int&) { return true; }));
  cache.Upsert("ns", "a", [](int& value) { value += 10; });
  EXPECT_TRUE(cache.Visit("ns", "a", [](int& value) { return value == 11; }));
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(LruCache, NamespaceDropRemovesOnlyThatNamespace) {
  LruCache<int> cache(8);
  for (const char* ns : {"market:a", "market:ab"}) {
    for (const char* key : {"v1", "v2"}) {
      cache.GetOrCompute(ns, key, [] { return 1; });
    }
  }
  cache.DropNamespace("market:a");
  EXPECT_EQ(cache.stats().entries, 2u);
  bool hit = false;
  cache.GetOrCompute("market:ab", "v1", [] { return 2; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.GetOrCompute("market:a", "v1", [] { return 2; }, &hit),
            2);
  EXPECT_FALSE(hit);

  // A compute in flight across the drop keeps its value out of the cache.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread stale([&] {
    EXPECT_EQ(cache.GetOrCompute("market:a", "v3",
                                 [&] {
                                   started.set_value();
                                   released.wait();
                                   return 3;
                                 }),
              3);
  });
  started.get_future().wait();
  cache.DropNamespace("market:a");
  release.set_value();
  stale.join();
  EXPECT_EQ(cache.GetOrCompute("market:a", "v3", [] { return 4; }, &hit),
            4);
  EXPECT_FALSE(hit);
}

}  // namespace
}  // namespace bundlemine
