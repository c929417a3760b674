#include "core/range_estimator.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/error_metrics.h"
#include "core/histogram_builder.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "data/workload.h"
#include "sampling/row_sampler.h"
#include "stats/histogram_backends.h"

namespace equihist {
namespace {

// Uniform data 1..1000 with a perfect 10-bucket histogram: buckets (0,100],
// (100,200], ... with exact counts.
struct UniformFixture {
  UniformFixture()
      : data(ValueSet::FromFrequencies(*MakeAllDistinct(1000))),
        histogram(BuildPerfectHistogram(data, 10).value()) {}
  ValueSet data;
  Histogram histogram;
};

TEST(RangeEstimatorTest, ExactOnBucketAlignedQueries) {
  UniformFixture fx;
  // (100, 300] covers buckets 2 and 3 exactly: 200 tuples.
  EXPECT_DOUBLE_EQ(EstimateRangeCount(fx.histogram, {100, 300}), 200.0);
  // Whole domain.
  EXPECT_DOUBLE_EQ(EstimateRangeCount(fx.histogram, {0, 1000}), 1000.0);
}

TEST(RangeEstimatorTest, InterpolatesPartialBuckets) {
  UniformFixture fx;
  // (150, 250]: half of bucket 2 (50) + half of bucket 3 (50).
  EXPECT_NEAR(EstimateRangeCount(fx.histogram, {150, 250}), 100.0, 1e-9);
  // (120, 130]: a tenth of one bucket.
  EXPECT_NEAR(EstimateRangeCount(fx.histogram, {120, 130}), 10.0, 1e-9);
}

TEST(RangeEstimatorTest, UniformDataInterpolationIsNearExact) {
  UniformFixture fx;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Value lo = rng.NextInRange(0, 999);
    const Value hi = rng.NextInRange(static_cast<std::int64_t>(lo) + 1, 1000);
    const double estimate = EstimateRangeCount(fx.histogram, {lo, hi});
    const double actual = static_cast<double>(fx.data.CountInRange(lo, hi));
    EXPECT_NEAR(estimate, actual, 1.0) << lo << " " << hi;
  }
}

TEST(RangeEstimatorTest, ClampsQueriesOutsideDomain) {
  UniformFixture fx;
  EXPECT_DOUBLE_EQ(EstimateRangeCount(fx.histogram, {-500, 2000}), 1000.0);
  EXPECT_DOUBLE_EQ(EstimateRangeCount(fx.histogram, {2000, 3000}), 0.0);
  EXPECT_DOUBLE_EQ(EstimateRangeCount(fx.histogram, {-10, -5}), 0.0);
}

TEST(RangeEstimatorTest, EmptyAndReversedRanges) {
  UniformFixture fx;
  EXPECT_DOUBLE_EQ(EstimateRangeCount(fx.histogram, {500, 500}), 0.0);
  EXPECT_DOUBLE_EQ(EstimateRangeCount(fx.histogram, {600, 400}), 0.0);
}

TEST(RangeEstimatorTest, ZeroWidthBucketsContributeAllOrNothing) {
  // Bucket (5,5] holds a 400-tuple spike at value 5.
  const auto h =
      Histogram::Create({5, 5, 10}, {100, 400, 100, 100}, 0, 20).value();
  EXPECT_DOUBLE_EQ(EstimateRangeCount(h, {4, 5}),
                   100.0 / 5.0 * 1.0 + 400.0);  // part of (0,5] + spike
  EXPECT_DOUBLE_EQ(EstimateRangeCount(h, {5, 20}), 200.0);  // excludes spike
  EXPECT_DOUBLE_EQ(EstimateRangeCount(h, {0, 20}), 700.0);
}

TEST(RangeEstimatorTest, SelectivityNormalizes) {
  UniformFixture fx;
  EXPECT_NEAR(EstimateRangeSelectivity(fx.histogram, {0, 500}), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(fx.histogram, {0, 1000}), 1.0);
}

TEST(RangeEstimatorTest, TheoremBoundFormulas) {
  EXPECT_DOUBLE_EQ(PerfectHistogramAbsoluteErrorBound(1000, 10), 200.0);
  EXPECT_DOUBLE_EQ(MaxErrorHistogramAbsoluteErrorBound(1000, 10, 0.5), 300.0);
  // Theorem 1.2 with f = 0.05, k = 1000: factor 1 + 0.05*250 = 13.5 — the
  // Example 1 multiplicative blow-up.
  EXPECT_NEAR(AvgErrorHistogramAbsoluteErrorFloor(1000000, 1000, 0.05) /
                  PerfectHistogramAbsoluteErrorBound(1000000, 1000),
              13.5, 1e-9);
  // Theorem 1.3 with f = 0.05, k = 1000, t = 10: factor 1 + 0.05*sqrt(1250)
  // ~= 2.77 — Example 1's 2.8.
  EXPECT_NEAR(VarErrorHistogramAbsoluteErrorFloor(1000000, 1000, 0.05, 10.0) /
                  PerfectHistogramAbsoluteErrorBound(1000000, 1000),
              2.77, 0.05);
}

TEST(RangeEstimatorTest, PerfectHistogramRespectsTheorem1Bound) {
  // Empirical check of Theorem 1.1/3: with a perfect histogram the absolute
  // estimation error never exceeds 2n/k (+1 for integer-boundary slack) on
  // uniform data.
  UniformFixture fx;
  ValueSet& data = fx.data;
  RangeWorkloadGenerator gen(&data, 17);
  const auto queries = gen.UniformRanges(500);
  const auto report =
      EvaluateRangeWorkload(EquiHeightModel(fx.histogram), queries, data);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->max_absolute_error,
            PerfectHistogramAbsoluteErrorBound(1000, 10) + 1.0);
}

TEST(RangeEstimatorTest, SampledHistogramRespectsTheorem3BoundOnZipf) {
  // Build an approximate histogram from a sample of Zipf data and check
  // Theorem 3's guarantee using the measured f_max.
  const auto freq = MakeZipf({.n = 100000, .domain_size = 2000, .skew = 1.0});
  ASSERT_TRUE(freq.ok());
  ValueSet data = ValueSet::FromFrequencies(*freq);
  Rng rng(7);
  auto sample = SampleRowsWithoutReplacement(data.sorted_values(), 20000, rng);
  ASSERT_TRUE(sample.ok());
  std::sort(sample->begin(), sample->end());
  const std::uint64_t k = 50;
  const auto approx = BuildHistogramFromSample(*sample, k, data.size());
  ASSERT_TRUE(approx.ok());

  // Measured max error of the approximate histogram.
  const auto counts = approx->PartitionCounts(data);
  double f_max = 0.0;
  const double ideal = static_cast<double>(data.size()) / static_cast<double>(k);
  for (auto c : counts) {
    f_max = std::max(f_max, std::abs(static_cast<double>(c) - ideal) / ideal);
  }

  RangeWorkloadGenerator gen(&data, 23);
  const auto queries = gen.UniformRanges(300);
  const auto report =
      EvaluateRangeWorkload(EquiHeightModel(*approx), queries, data);
  ASSERT_TRUE(report.ok());
  // Theorem 3: absolute error <= (1 + f) * 2n/k. Interpolation inside
  // buckets assumes uniform spread, which Zipf data violates; allow the
  // bound itself (no slack needed empirically, but keep 5%).
  const double bound =
      MaxErrorHistogramAbsoluteErrorBound(data.size(), k, f_max);
  EXPECT_LE(report->max_absolute_error, bound * 1.05);
}

// Theorem 3, literally: for a histogram with measured max error f = fn/k,
// every range query of output size s = t*n/k is estimated within
// (1+f)*2n/k absolute and (1+f)*2/t relative. Swept over output sizes t
// and sample sizes.
class Theorem3SweepTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(Theorem3SweepTest, BoundHoldsForAllOutputSizes) {
  const auto [t, r] = GetParam();
  const std::uint64_t n = 100000;
  const std::uint64_t k = 40;
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(n));
  Rng rng(101 + static_cast<std::uint64_t>(t) + r);
  auto sample = SampleRowsWithoutReplacement(data.sorted_values(), r, rng);
  ASSERT_TRUE(sample.ok());
  std::sort(sample->begin(), sample->end());
  const auto h = BuildHistogramFromSample(*sample, k, n);
  ASSERT_TRUE(h.ok());
  const auto errors = ComputeHistogramErrors(*h, data);
  ASSERT_TRUE(errors.ok());
  const double f = errors->f_max;

  RangeWorkloadGenerator gen(&data, 7);
  const std::uint64_t s = static_cast<std::uint64_t>(t) * n / k;
  const auto queries = gen.FixedSelectivityRanges(100, s);
  ASSERT_TRUE(queries.ok());
  const double abs_bound = MaxErrorHistogramAbsoluteErrorBound(n, k, f);
  const double rel_bound = (1.0 + f) * 2.0 / static_cast<double>(t);
  for (const RangeQuery& q : *queries) {
    const double estimate = EstimateRangeCount(*h, q);
    const auto actual = static_cast<double>(data.CountInRange(q.lo, q.hi));
    const double abs_err = std::abs(estimate - actual);
    EXPECT_LE(abs_err, abs_bound + 1.0) << "t=" << t << " r=" << r;
    EXPECT_LE(abs_err / actual, rel_bound + 1e-3) << "t=" << t << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OutputSizesAndSamples, Theorem3SweepTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 10),
                       ::testing::Values(std::uint64_t{2000},
                                         std::uint64_t{10000},
                                         std::uint64_t{50000})));

TEST(EvaluateRangeWorkloadTest, ReportsMeansAndMaxima) {
  UniformFixture fx;
  const std::vector<RangeQuery> queries = {{0, 100}, {0, 150}, {100, 101}};
  const auto report =
      EvaluateRangeWorkload(EquiHeightModel(fx.histogram), queries, fx.data);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->query_count, 3u);
  EXPECT_EQ(report->relative_query_count, 3u);
  EXPECT_GE(report->max_absolute_error, report->mean_absolute_error);
  EXPECT_GE(report->max_relative_error, report->mean_relative_error);
}

TEST(EvaluateRangeWorkloadTest, SkipsZeroOutputQueriesForRelativeError) {
  UniformFixture fx;
  const std::vector<RangeQuery> queries = {{5000, 6000}};
  const auto report =
      EvaluateRangeWorkload(EquiHeightModel(fx.histogram), queries, fx.data);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->query_count, 1u);
  EXPECT_EQ(report->relative_query_count, 0u);
}

TEST(EvaluateRangeWorkloadTest, RejectsEmptyTruth) {
  UniformFixture fx;
  EXPECT_FALSE(
      EvaluateRangeWorkload(EquiHeightModel(fx.histogram),
                            std::vector<RangeQuery>{}, ValueSet())
          .ok());
}

}  // namespace
}  // namespace equihist
