#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"

namespace rulekit {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad pattern");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad pattern");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad pattern");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(Status::InvalidArgument("").code());
  codes.insert(Status::NotFound("").code());
  codes.insert(Status::AlreadyExists("").code());
  codes.insert(Status::FailedPrecondition("").code());
  codes.insert(Status::ResourceExhausted("").code());
  codes.insert(Status::Internal("").code());
  codes.insert(Status::IOError("").code());
  EXPECT_EQ(codes.size(), 7u);
}

Status FailsThenPropagates() {
  RULEKIT_RETURN_IF_ERROR(Status::NotFound("missing"));
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Result --

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  auto r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultTest, HoldsError) {
  auto r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(13), 13u);
}

TEST(RngTest, UniformIntRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(5);
  const uint64_t n = 1000;
  int low = 0, total = 20000;
  for (int i = 0; i < total; ++i) {
    uint64_t v = rng.Zipf(n, 1.1);
    ASSERT_LT(v, n);
    if (v < 10) ++low;
  }
  // Rank 0-9 should absorb far more than 1% of the mass.
  EXPECT_GT(low, total / 10);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : unique) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementAllWhenKTooLarge) {
  Rng rng(9);
  auto sample = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, WeightedIndexPrefersHeavyWeight) {
  Rng rng(13);
  std::vector<double> w = {0.01, 0.01, 10.0};
  int heavy = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.WeightedIndex(w) == 2) ++heavy;
  }
  EXPECT_GT(heavy, 900);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Hello World 123"), "hello world 123");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
}

TEST(StringUtilTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("wedding band", "wed"));
  EXPECT_FALSE(StartsWith("wed", "wedding"));
  EXPECT_TRUE(EndsWith("wedding band", "band"));
  EXPECT_TRUE(Contains("wedding band", "ing ba"));
  EXPECT_FALSE(Contains("wedding band", "ring"));
}

TEST(StringUtilTest, EscapeRoundTrip) {
  std::string original = "a\tb\nc\\d\re";
  EXPECT_EQ(UnescapeControl(EscapeControl(original)), original);
  EXPECT_EQ(EscapeControl(original).find('\t'), std::string::npos);
}

TEST(StringUtilTest, RegexEscapeNeutralizesMetachars) {
  EXPECT_EQ(RegexEscape("a.b*c"), "a\\.b\\*c");
  EXPECT_EQ(RegexEscape("(x|y)"), "\\(x\\|y\\)");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 0.5), "0.50");
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, FreeParallelForRunsSmallOrPoollessWorkInline) {
  // A null pool or a single item runs as one inline call on the caller's
  // thread; nothing runs for an empty range.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::pair<size_t, size_t>> calls;
    ParallelFor(p, 1, [&](size_t begin, size_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      calls.emplace_back(begin, end);
    });
    EXPECT_EQ(calls, (std::vector<std::pair<size_t, size_t>>{{0, 1}}));
    ParallelFor(p, 0, [&](size_t, size_t) { ADD_FAILURE(); });
  }
  std::vector<std::pair<size_t, size_t>> inline_calls;
  ParallelFor(nullptr, 50, [&](size_t begin, size_t end) {
    inline_calls.emplace_back(begin, end);
  });
  EXPECT_EQ(inline_calls, (std::vector<std::pair<size_t, size_t>>{{0, 50}}));
  // With a pool and several items it chunks like the member.
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(&pool, hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace rulekit
