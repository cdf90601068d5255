#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/bounded_cache.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"

namespace wym {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::IoError("disk on fire");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIoError);
  EXPECT_EQ(status.ToString(), "IoError: disk on fire");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, IndexCoversRange) {
  Rng rng(7);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.Index(5)];
  for (int count : seen) EXPECT_GT(count, 100);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(StatsTest, MeanMedianStd) {
  const std::vector<double> values = {1, 2, 3, 4, 10};
  EXPECT_DOUBLE_EQ(stats::Mean(values), 4.0);
  EXPECT_DOUBLE_EQ(stats::Median(values), 3.0);
  EXPECT_NEAR(stats::StdDev(values), 3.1623, 1e-3);  // Population SD.
  EXPECT_DOUBLE_EQ(stats::Min(values), 1.0);
  EXPECT_DOUBLE_EQ(stats::Max(values), 10.0);
  EXPECT_DOUBLE_EQ(stats::Sum(values), 20.0);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(stats::Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Median({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::StdDev({}), 0.0);
}

TEST(StatsTest, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(stats::Median({4, 1, 3, 2}), 2.5);
}

TEST(StatsTest, PearsonPerfectPositive) {
  EXPECT_NEAR(stats::Pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
}

TEST(StatsTest, PearsonPerfectNegative) {
  EXPECT_NEAR(stats::Pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSeriesIsZero) {
  EXPECT_DOUBLE_EQ(stats::Pearson({1, 1, 1}, {2, 4, 6}), 0.0);
}

TEST(StatsTest, FleissKappaPerfectAgreement) {
  // 3 raters, all agree per subject.
  const std::vector<std::vector<int>> ratings = {{3, 0}, {0, 3}, {3, 0}};
  EXPECT_NEAR(stats::FleissKappa(ratings), 1.0, 1e-9);
}

TEST(StatsTest, FleissKappaKnownValue) {
  // Classic Wikipedia example (14 raters, 10 subjects, 5 categories)
  // has kappa ~= 0.210.
  const std::vector<std::vector<int>> ratings = {
      {0, 0, 0, 0, 14}, {0, 2, 6, 4, 2}, {0, 0, 3, 5, 6},
      {0, 3, 9, 2, 0},  {2, 2, 8, 1, 1}, {7, 7, 0, 0, 0},
      {3, 2, 6, 3, 0},  {2, 5, 3, 2, 2}, {6, 5, 2, 1, 0},
      {0, 2, 2, 3, 7}};
  EXPECT_NEAR(stats::FleissKappa(ratings), 0.210, 0.005);
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(strings::ToLower("MiXeD Case 42"), "mixed case 42");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = strings::Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  const auto parts = strings::SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(strings::Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(strings::Trim("  hi  "), "hi");
  EXPECT_EQ(strings::Trim("\t\n"), "");
}

TEST(StringUtilTest, Predicates) {
  EXPECT_TRUE(strings::StartsWith("left_name", "left_"));
  EXPECT_FALSE(strings::StartsWith("lef", "left_"));
  EXPECT_TRUE(strings::EndsWith("file.csv", ".csv"));
  EXPECT_TRUE(strings::IsNumeric("12345"));
  EXPECT_FALSE(strings::IsNumeric("12a45"));
  EXPECT_FALSE(strings::IsNumeric(""));
}

TEST(StringUtilTest, IsAlphanumericCode) {
  EXPECT_TRUE(strings::IsAlphanumericCode("dslra200w"));
  EXPECT_TRUE(strings::IsAlphanumericCode("39400416a"));
  EXPECT_FALSE(strings::IsAlphanumericCode("camera"));   // No digits.
  EXPECT_FALSE(strings::IsAlphanumericCode("5811"));     // No letters.
  EXPECT_FALSE(strings::IsAlphanumericCode("a1"));       // Too short.
  EXPECT_FALSE(strings::IsAlphanumericCode("a-1b"));     // Punctuation.
}

TEST(StringUtilTest, ParseUintReadsWholeDecimalWithinMax) {
  uint64_t value = 0;
  EXPECT_TRUE(strings::ParseUint("0", 10, &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(strings::ParseUint("256", 256, &value));
  EXPECT_EQ(value, 256u);
  EXPECT_TRUE(strings::ParseUint("18446744073709551615",
                                 std::numeric_limits<uint64_t>::max(),
                                 &value));
  EXPECT_EQ(value, std::numeric_limits<uint64_t>::max());
  // Trailing junk, signs, whitespace, empty, above max, overflow.
  for (const char* bad : {"4x", "-1", "+4", " 4", "4 ", "", "0x10", "257",
                          "18446744073709551616"}) {
    EXPECT_FALSE(strings::ParseUint(bad, 256, &value)) << bad;
  }
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(strings::FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(strings::FormatDouble(2.0, 0), "2");
}

TEST(FifoCacheTest, LookupInsertAndSize) {
  util::FifoCache<std::string, int> cache(4);
  int value = 0;
  EXPECT_FALSE(cache.Lookup("a", &value));
  cache.Insert("a", 1);
  ASSERT_TRUE(cache.Lookup("a", &value));
  EXPECT_EQ(value, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.capacity(), 4u);
}

TEST(FifoCacheTest, EvictsOldestFirstDeterministically) {
  util::FifoCache<std::string, int> cache(3);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  cache.Insert("c", 3);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.Insert("d", 4);  // Evicts "a", the oldest.
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  int value = 0;
  EXPECT_FALSE(cache.Lookup("a", &value));
  EXPECT_TRUE(cache.Lookup("b", &value));
  EXPECT_TRUE(cache.Lookup("c", &value));
  EXPECT_TRUE(cache.Lookup("d", &value));
}

TEST(FifoCacheTest, ReinsertKeepsOriginalValueAndAge) {
  util::FifoCache<std::string, int> cache(2);
  cache.Insert("a", 1);
  cache.Insert("a", 99);  // No-op: existing key keeps value and age.
  int value = 0;
  ASSERT_TRUE(cache.Lookup("a", &value));
  EXPECT_EQ(value, 1);
  cache.Insert("b", 2);
  cache.Insert("c", 3);  // "a" is still the oldest entry and goes first.
  EXPECT_FALSE(cache.Lookup("a", &value));
  EXPECT_TRUE(cache.Lookup("b", &value));
}

TEST(FifoCacheTest, ZeroCapacityDisablesCaching) {
  util::FifoCache<std::string, int> cache(0);
  cache.Insert("a", 1);
  int value = 0;
  EXPECT_FALSE(cache.Lookup("a", &value));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FifoCacheTest, ClearResetsEntriesButKeepsEvictionCount) {
  util::FifoCache<std::string, int> cache(2);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  cache.Insert("c", 3);
  EXPECT_EQ(cache.evictions(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
  int value = 0;
  EXPECT_FALSE(cache.Lookup("b", &value));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TablePrinterTest, NumericRowFormatting) {
  TablePrinter table({"id", "x", "y"});
  table.AddRow("row", {0.5, 0.25}, 2);
  EXPECT_NE(table.ToString().find("0.50"), std::string::npos);
}

}  // namespace
}  // namespace wym
