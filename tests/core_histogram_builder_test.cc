#include "core/histogram_builder.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "data/value_set.h"
#include "sampling/sample.h"

namespace equihist {
namespace {

TEST(PerfectHistogramTest, EquiHeightOnDistinctData) {
  const ValueSet data =
      ValueSet::FromFrequencies(*MakeAllDistinct(1000));
  const auto h = BuildPerfectHistogram(data, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->bucket_count(), 10u);
  EXPECT_EQ(h->total(), 1000u);
  for (std::uint64_t c : h->counts()) {
    EXPECT_EQ(c, 100u);
  }
}

TEST(PerfectHistogramTest, NonDivisibleSizesStayWithinOne) {
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(1003));
  const auto h = BuildPerfectHistogram(data, 10);
  ASSERT_TRUE(h.ok());
  std::uint64_t total = 0;
  for (std::uint64_t c : h->counts()) {
    EXPECT_GE(c, 100u);
    EXPECT_LE(c, 101u);
    total += c;
  }
  EXPECT_EQ(total, 1003u);
}

TEST(PerfectHistogramTest, SeparatorsAreSortedDataValues) {
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(100));
  const auto h = BuildPerfectHistogram(data, 4);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->separators(), (std::vector<Value>{25, 50, 75}));
}

TEST(PerfectHistogramTest, KLargerThanNLeavesEmptyBuckets) {
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(3));
  const auto h = BuildPerfectHistogram(data, 8);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->bucket_count(), 8u);
  std::uint64_t total = 0;
  for (std::uint64_t c : h->counts()) total += c;
  EXPECT_EQ(total, 3u);
}

TEST(PerfectHistogramTest, HeavyDuplicatesProduceRepeatedSeparators) {
  // One value holds 60% of the data: with k=10 several separators coincide.
  FrequencyVector fv({{1, 600}, {2, 100}, {3, 100}, {4, 100}, {5, 100}});
  const ValueSet data = ValueSet::FromFrequencies(fv);
  const auto h = BuildPerfectHistogram(data, 10);
  ASSERT_TRUE(h.ok());
  const auto& seps = h->separators();
  EXPECT_GT(std::count(seps.begin(), seps.end(), 1), 1);
  EXPECT_TRUE(std::is_sorted(seps.begin(), seps.end()));
}

TEST(PerfectHistogramTest, Validation) {
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(10));
  EXPECT_FALSE(BuildPerfectHistogram(data, 0).ok());
  EXPECT_FALSE(BuildPerfectHistogram(ValueSet(), 4).ok());
}

TEST(SampleHistogramTest, ClaimedCountsAreEvenSplit) {
  const std::vector<Value> sample = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto h = BuildHistogramFromSample(sample, 4, 1000);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->total(), 1000u);
  EXPECT_EQ(h->counts(), (std::vector<std::uint64_t>{250, 250, 250, 250}));
}

TEST(SampleHistogramTest, ClaimedCountsSumExactlyWithRemainder) {
  const std::vector<Value> sample = {1, 2, 3};
  const auto h = BuildHistogramFromSample(sample, 3, 1000);
  ASSERT_TRUE(h.ok());
  std::uint64_t total = 0;
  for (std::uint64_t c : h->counts()) total += c;
  EXPECT_EQ(total, 1000u);
  // 1000 = 334 + 333 + 333.
  EXPECT_EQ(h->counts()[0], 334u);
}

TEST(SampleHistogramTest, SeparatorsAreSampleQuantiles) {
  std::vector<Value> sample(100);
  std::iota(sample.begin(), sample.end(), 1);  // 1..100
  const auto h = BuildHistogramFromSample(sample, 4, 100000);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->separators(), (std::vector<Value>{25, 50, 75}));
  EXPECT_EQ(h->lower_fence(), 0);
  EXPECT_EQ(h->upper_fence(), 100);
}

TEST(SampleHistogramTest, SampleOverloadMatchesSpanOverload) {
  Sample sample({9, 3, 7, 1, 5, 3});
  const std::vector<Value> sorted = {1, 3, 3, 5, 7, 9};
  const auto a = BuildHistogramFromSample(sample, 2, 50);
  const auto b =
      BuildHistogramFromSample(std::span<const Value>(sorted), 2, 50);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->separators(), b->separators());
  EXPECT_EQ(a->counts(), b->counts());
}

TEST(SampleHistogramTest, Validation) {
  const std::vector<Value> sample = {1, 2, 3};
  EXPECT_FALSE(BuildHistogramFromSample(sample, 0, 100).ok());
  EXPECT_FALSE(BuildHistogramFromSample(sample, 2, 0).ok());
  EXPECT_FALSE(
      BuildHistogramFromSample(std::span<const Value>{}, 2, 100).ok());
}

// Regression: a population whose minimum is INT64_MIN used to compute the
// lower fence as min - 1, which is signed overflow (UB). The fence now
// saturates at INT64_MIN, which still classifies every real value
// correctly because no value can be strictly below it.
TEST(PerfectHistogramTest, MinimumAtInt64MinDoesNotOverflow) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  const ValueSet data({kMin, kMin + 1, 0, 5, 10});
  const auto h = BuildPerfectHistogram(data, 2);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->lower_fence(), kMin);
  EXPECT_EQ(h->total(), 5u);
}

TEST(SampleHistogramTest, SampleFrontAtInt64MinDoesNotOverflow) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  const std::vector<Value> sorted_sample = {kMin, -7, 0, 3, 9, 12};
  const auto h = BuildHistogramFromSample(sorted_sample, 3, 600);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->lower_fence(), kMin);
  std::uint64_t total = 0;
  for (std::uint64_t c : h->counts()) total += c;
  EXPECT_EQ(total, 600u);
}

// Property: across sizes and bucket counts the perfect histogram on
// distinct data is equi-height to within one tuple, sums to n, and its
// separators are non-decreasing.
class PerfectHistogramPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(PerfectHistogramPropertyTest, EquiHeightInvariants) {
  const auto [n, k] = GetParam();
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(n));
  const auto h = BuildPerfectHistogram(data, k);
  ASSERT_TRUE(h.ok());
  const std::uint64_t q = n / k;
  std::uint64_t total = 0;
  for (std::uint64_t c : h->counts()) {
    EXPECT_GE(c + 1, q);      // c >= q-1 in unsigned-safe form
    EXPECT_LE(c, q + 1);
    total += c;
  }
  EXPECT_EQ(total, n);
  EXPECT_TRUE(std::is_sorted(h->separators().begin(), h->separators().end()));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBuckets, PerfectHistogramPropertyTest,
    ::testing::Combine(::testing::Values(std::uint64_t{97}, std::uint64_t{1000},
                                         std::uint64_t{12345}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{7},
                                         std::uint64_t{50},
                                         std::uint64_t{96})));

}  // namespace
}  // namespace equihist
