#include "common/math.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace equihist {
namespace {

TEST(KahanSumTest, SumsExactlyRepresentableValues) {
  KahanSum sum;
  for (int i = 1; i <= 100; ++i) sum.Add(i);
  EXPECT_DOUBLE_EQ(sum.Value(), 5050.0);
}

TEST(KahanSumTest, CompensatesSmallTermsAgainstLargeBase) {
  // Naive summation of 1e16 + 1.0 * 1000 - 1e16 loses the ones entirely;
  // Neumaier compensation keeps them.
  KahanSum sum;
  sum.Add(1e16);
  for (int i = 0; i < 1000; ++i) sum.Add(1.0);
  sum.Add(-1e16);
  EXPECT_NEAR(sum.Value(), 1000.0, 1e-6);
}

TEST(StableSumTest, MatchesKahan) {
  const std::vector<double> values = {0.1, 0.2, 0.3, 0.4};
  EXPECT_NEAR(StableSum(values), 1.0, 1e-12);
}

TEST(MeanVarianceTest, BasicMoments) {
  const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_DOUBLE_EQ(Variance(values), 4.0);
}

TEST(MeanVarianceTest, EmptySpanIsZero) {
  const std::vector<double> empty;
  EXPECT_EQ(Mean(empty), 0.0);
  EXPECT_EQ(Variance(empty), 0.0);
}

TEST(GeneralizedHarmonicTest, OrdinaryHarmonicNumbers) {
  EXPECT_DOUBLE_EQ(GeneralizedHarmonic(1, 1.0), 1.0);
  EXPECT_NEAR(GeneralizedHarmonic(4, 1.0), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  // H_n ~ ln n + gamma.
  EXPECT_NEAR(GeneralizedHarmonic(100000, 1.0),
              std::log(100000.0) + 0.5772156649, 1e-4);
}

TEST(GeneralizedHarmonicTest, ConvergesForSGreaterThanOne) {
  // H_{inf,2} = pi^2/6.
  EXPECT_NEAR(GeneralizedHarmonic(1000000, 2.0), 1.6449340668, 1e-5);
}

TEST(GeneralizedHarmonicTest, ZeroTermsIsZero) {
  EXPECT_EQ(GeneralizedHarmonic(0, 2.0), 0.0);
}

TEST(LogBinomialTest, SmallCases) {
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(LogBinomial(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(LogBinomial(10, 10), 0.0, 1e-12);
  EXPECT_NEAR(LogBinomial(52, 5), std::log(2598960.0), 1e-9);
}

TEST(HoeffdingTest, TailDecreasesWithThreshold) {
  const double loose = HoeffdingTwoSidedTail(1000.0, 10.0);
  const double tight = HoeffdingTwoSidedTail(1000.0, 100.0);
  EXPECT_GT(loose, tight);
  EXPECT_LE(loose, 1.0);
  EXPECT_GE(tight, 0.0);
}

TEST(HoeffdingTest, KnownValue) {
  // 2 exp(-2 * 50^2 / 1000) = 2 exp(-5).
  EXPECT_NEAR(HoeffdingTwoSidedTail(1000.0, 50.0), 2.0 * std::exp(-5.0),
              1e-12);
}

TEST(HoeffdingTest, DegenerateInputsClampToOne) {
  EXPECT_EQ(HoeffdingTwoSidedTail(0.0, 1.0), 1.0);
  EXPECT_EQ(HoeffdingTwoSidedTail(100.0, 0.0), 1.0);
}

TEST(BinarySearchFirstTrueTest, FindsThreshold) {
  auto pred = [](std::int64_t x) { return x * x >= 1000; };
  EXPECT_EQ(BinarySearchFirstTrue(0, 1000, pred), 32);
}

TEST(BinarySearchFirstTrueTest, AllFalseReturnsHiPlusOne) {
  auto never = [](std::int64_t) { return false; };
  EXPECT_EQ(BinarySearchFirstTrue(0, 10, never), 11);
}

TEST(BinarySearchFirstTrueTest, AllTrueReturnsLo) {
  auto always = [](std::int64_t) { return true; };
  EXPECT_EQ(BinarySearchFirstTrue(-5, 10, always), -5);
}

TEST(BinarySearchFirstTrueTest, EmptyRange) {
  auto always = [](std::int64_t) { return true; };
  EXPECT_EQ(BinarySearchFirstTrue(10, 5, always), 6);
}

TEST(ChiSquareStatisticTest, PerfectFitIsZero) {
  const std::vector<std::uint64_t> observed = {10, 10, 10};
  const std::vector<double> expected = {10.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(ChiSquareStatistic(observed, expected), 0.0);
}

TEST(ChiSquareStatisticTest, KnownValue) {
  const std::vector<std::uint64_t> observed = {12, 8};
  const std::vector<double> expected = {10.0, 10.0};
  // (2^2)/10 + (2^2)/10 = 0.8
  EXPECT_NEAR(ChiSquareStatistic(observed, expected), 0.8, 1e-12);
}

TEST(ChiSquareStatisticTest, SkipsZeroExpectedCells) {
  const std::vector<std::uint64_t> observed = {5, 0};
  const std::vector<double> expected = {5.0, 0.0};
  EXPECT_DOUBLE_EQ(ChiSquareStatistic(observed, expected), 0.0);
}

TEST(NormalQuantileTest, KnownQuantiles) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.8413447461), 1.0, 1e-5);
}

TEST(NormalQuantileTest, TailsAreMonotone) {
  double prev = NormalQuantile(0.001);
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double q = NormalQuantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(ChiSquareCriticalValueTest, MatchesTables) {
  // chi^2_{0.05, 10} = 18.307; Wilson-Hilferty is good to ~1%.
  EXPECT_NEAR(ChiSquareCriticalValue(10.0, 0.05), 18.307, 0.2);
  // chi^2_{0.01, 5} = 15.086.
  EXPECT_NEAR(ChiSquareCriticalValue(5.0, 0.01), 15.086, 0.3);
  // chi^2_{0.05, 100} = 124.342.
  EXPECT_NEAR(ChiSquareCriticalValue(100.0, 0.05), 124.342, 0.6);
}

// ApportionProportionally as it was written with a full sort of the
// remainders: the reference the selection must reproduce.
std::vector<std::uint64_t> ApportionBySorting(std::span<const double> weights,
                                              std::uint64_t total) {
  const std::size_t d = weights.size();
  KahanSum weight_sum;
  for (double w : weights) weight_sum.Add(w);
  const double total_weight = weight_sum.Value();
  std::vector<std::uint64_t> counts(d, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < d; ++i) {
    const double ideal =
        (total_weight > 0.0)
            ? static_cast<double>(total) * (weights[i] / total_weight)
            : 0.0;
    const double floor_val = std::floor(ideal);
    counts[i] = static_cast<std::uint64_t>(floor_val);
    assigned += counts[i];
    remainders.emplace_back(ideal - floor_val, i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::uint64_t leftover = (assigned <= total) ? total - assigned : 0;
  for (std::size_t i = 0; i < remainders.size() && leftover > 0; ++i) {
    ++counts[remainders[i].second];
    --leftover;
  }
  for (std::size_t i = 0; leftover > 0; i = (i + 1) % d) {
    ++counts[i];
    --leftover;
  }
  return counts;
}

// The leftover units go to the same entries as under a full sort of the
// remainders: with many equal remainders (the index breaks the tie), with
// zero weights (all of them too, so the units go round-robin), and with
// totals below and above the weights' sum.
TEST(ApportionProportionallyTest, SelectsTheRemaindersAFullSortSelects) {
  Rng rng(17);
  std::vector<std::vector<double>> weight_sets = {
      std::vector<double>(200, 1.0),
      {0.0, 0.0, 5.0, 0.0, 3.0},
      {0.0, 0.0, 0.0},
      {7.0},
  };
  std::vector<double> pattern;
  for (int i = 0; i < 300; ++i) pattern.push_back(1.0 + i % 3);
  weight_sets.push_back(pattern);
  for (int set = 0; set < 20; ++set) {
    // Sample bucket counts: small integers, so remainders repeat.
    std::vector<double> counts(1 + rng.NextBounded(400));
    for (double& w : counts) {
      w = rng.NextBounded(4) == 0 ? 0.0
                                  : static_cast<double>(rng.NextBounded(50));
    }
    weight_sets.push_back(counts);
  }
  for (const std::vector<double>& weights : weight_sets) {
    double sum = 0.0;
    for (double w : weights) sum += w;
    const auto whole = static_cast<std::uint64_t>(sum);
    std::vector<std::uint64_t> totals = {
        0, 1, 2, 7, 1001, 1150, whole / 3, whole, whole + 1, whole * 10 + 3};
    // With zero weights every unit is leftover and goes round-robin.
    if (whole > 0) totals.push_back(std::uint64_t{1} << 40);
    for (int t = 0; t < 5; ++t) {
      totals.push_back(rng.NextBounded(10 * whole + 5));
    }
    for (const std::uint64_t total : totals) {
      SCOPED_TRACE(testing::Message() << "d " << weights.size() << " total "
                                      << total << " weight sum " << sum);
      const std::vector<std::uint64_t> counts =
          ApportionProportionally(weights, total);
      ASSERT_EQ(counts, ApportionBySorting(weights, total));
      std::uint64_t assigned = 0;
      for (const std::uint64_t c : counts) assigned += c;
      EXPECT_EQ(assigned, total);
    }
  }
}

}  // namespace
}  // namespace equihist
