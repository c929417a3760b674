// End-to-end tests tying the full pipeline together: data generation ->
// paged storage -> sampling -> histogram construction -> error measurement
// -> optimizer usage. These are the "does the paper's story actually hold
// on this implementation" checks, run at reduced scale.

#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/cvb.h"
#include "core/density.h"
#include "core/error_metrics.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "data/workload.h"
#include "distinct/error.h"
#include "distinct/estimators.h"
#include "sampling/block_sampler.h"
#include "sampling/row_sampler.h"
#include "stats/histogram_backends.h"
#include "storage/table.h"

namespace equihist {
namespace {

// Theorem 4 / Corollary 1 empirical check: sampling the bound's r yields a
// delta-deviant histogram across seeds and distributions. gamma = 0.05 and
// 8 (distribution x seed) runs: all should pass comfortably since the
// bound is conservative.
class Theorem4EmpiricalTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(Theorem4EmpiricalTest, SampleOfBoundSizeMeetsErrorTarget) {
  const auto [skew, seed] = GetParam();
  const std::uint64_t n = 300000;
  const std::uint64_t k = 40;
  const double f = 0.25;
  const auto freq =
      MakeZipf({.n = n, .domain_size = n, .skew = skew, .seed = seed});
  ASSERT_TRUE(freq.ok());
  const ValueSet data = ValueSet::FromFrequencies(*freq);

  const auto r = DeviationSampleSize(n, k, f, 0.05);
  ASSERT_TRUE(r.ok());
  // At this scale the bound may exceed n; sampling with replacement keeps
  // the analysis model intact.
  Rng rng(seed * 7919 + 13);
  auto sample = SampleRowsWithReplacement(data.sorted_values(), *r, rng);
  std::sort(sample.begin(), sample.end());
  const auto h = BuildHistogramFromSample(sample, k, n);
  ASSERT_TRUE(h.ok());
  // Theorem 4 speaks about bucket counts on duplicate-free data; under
  // heavy duplication (high skew concentrates multiplicity above n/k) the
  // transferable form of its guarantee is that the claimed per-bucket
  // counts track the true ones within delta = f*n/k.
  const auto claimed = ComputeClaimedErrors(*h, data);
  ASSERT_TRUE(claimed.ok());
  EXPECT_LT(claimed->f_max, f) << "skew=" << skew << " seed=" << seed;
  if (skew == 0.0) {
    // Duplicate-free (domain_size == n): the raw bucket-count guarantee
    // itself must hold.
    const auto errors = ComputeHistogramErrors(*h, data);
    ASSERT_TRUE(errors.ok());
    EXPECT_LT(errors->f_max, f) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SkewsAndSeeds, Theorem4EmpiricalTest,
    ::testing::Combine(::testing::Values(0.0, 1.0, 2.0, 4.0),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2})));

TEST(EndToEndTest, AnalyzePipelineOverPagedTable) {
  // The analyze_tool scenario: Zipf(1) column, random layout, CVB with
  // k = 80 and f = 0.15, then validate everything the tool reports.
  const std::uint64_t n = 400000;
  const auto freq =
      MakeZipf({.n = n, .domain_size = 20000, .skew = 1.0, .seed = 3});
  ASSERT_TRUE(freq.ok());
  const ValueSet truth = ValueSet::FromFrequencies(*freq);
  auto table = Table::Create(*freq, PageConfig{8192, 64},
                             {.kind = LayoutKind::kRandom, .seed = 3});
  ASSERT_TRUE(table.ok());

  CvbOptions options;
  options.k = 50;
  options.f = 0.2;
  const auto result = RunCvb(*table, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->converged || result->exhausted_table);

  // Histogram quality: within 2x of the target (Theorem 7 gap), measured
  // with the duplicate-aware claimed-count metric since Zipf(1) carries
  // values heavier than n/k.
  const auto claimed_errors = ComputeClaimedErrors(result->histogram, truth);
  ASSERT_TRUE(claimed_errors.ok());
  EXPECT_LT(claimed_errors->f_max, 0.30);
  const auto errors = ComputeHistogramErrors(result->histogram, truth);
  ASSERT_TRUE(errors.ok());

  // I/O economy: block sampling must touch far fewer pages than a scan
  // when the layout is random.
  EXPECT_LT(result->blocks_sampled, table->page_count());

  // Density from the sample tracks the true density.
  const double true_density = ComputeDensity(truth.sorted_values());
  EXPECT_NEAR(result->density_estimate, true_density,
              std::max(0.2 * true_density, 1e-4));

  // The histogram serves range queries within the Theorem 3 regime.
  RangeWorkloadGenerator gen(&truth, 5);
  const auto queries = gen.UniformRanges(200);
  const auto report =
      EvaluateRangeWorkload(EquiHeightModel(result->histogram), queries, truth);
  ASSERT_TRUE(report.ok());
  const double bound = MaxErrorHistogramAbsoluteErrorBound(
      n, options.k, std::max(errors->f_max, options.f));
  EXPECT_LE(report->max_absolute_error, bound * 1.2);
}

TEST(EndToEndTest, ClusteringIsDetectedAndPaidFor) {
  // Figure 7's claim end-to-end: identical data, identical options; the
  // partially clustered layout forces more sampling for the same target.
  const std::uint64_t n = 200000;
  const auto freq =
      MakeZipf({.n = n, .domain_size = 500, .skew = 2.0, .seed = 9});
  ASSERT_TRUE(freq.ok());
  CvbOptions options;
  options.k = 60;
  options.f = 0.2;
  options.seed = 17;

  auto random_table = Table::Create(*freq, PageConfig{8192, 64},
                                    {.kind = LayoutKind::kRandom, .seed = 9});
  auto clustered_table = Table::Create(
      *freq, PageConfig{8192, 64},
      {.kind = LayoutKind::kPartiallyClustered, .clustered_fraction = 0.5,
       .seed = 9});
  ASSERT_TRUE(random_table.ok());
  ASSERT_TRUE(clustered_table.ok());
  const auto random_run = RunCvb(*random_table, options);
  const auto clustered_run = RunCvb(*clustered_table, options);
  ASSERT_TRUE(random_run.ok());
  ASSERT_TRUE(clustered_run.ok());
  EXPECT_GE(clustered_run->blocks_sampled, random_run->blocks_sampled);
}

TEST(EndToEndTest, DistinctValueReportMatchesFigure9Story) {
  // Zipf(2): d is small and the paper estimator nails "d << n" via
  // rel-error even from a 2% sample; the naive sample count is far below d
  // only when d is large relative to the sample — here it should be close.
  const std::uint64_t n = 500000;
  const auto freq =
      MakeZipf({.n = n, .domain_size = 50000, .skew = 2.0, .seed = 21});
  ASSERT_TRUE(freq.ok());
  const ValueSet data = ValueSet::FromFrequencies(*freq);
  const std::uint64_t d = data.DistinctCount();

  Rng rng(23);
  auto sample = SampleRowsWithoutReplacement(data.sorted_values(),
                                             n / 50, rng);
  ASSERT_TRUE(sample.ok());
  const auto profile = FrequencyProfile::FromUnsorted(*sample);
  const auto estimate = PaperEstimator(profile, n);
  ASSERT_TRUE(estimate.ok());

  const auto rel = AbsRelError(*estimate, d, n);
  ASSERT_TRUE(rel.ok());
  EXPECT_LT(*rel, 0.02);

  // And the Theorem 8 floor is respected by construction: the observed
  // ratio error can exceed it, but the bound itself is sane.
  const auto floor = DistinctValueErrorLowerBound(n, n / 50, 0.5);
  ASSERT_TRUE(floor.ok());
  EXPECT_GT(*floor, 1.0);
}

TEST(EndToEndTest, BlockSamplingMatchesRecordLevelOnRandomLayout) {
  // Section 4.1 scenario (a): with uncorrelated blocks, a block sample of
  // g = r/b pages is as good as r record-level samples.
  const std::uint64_t n = 300000;
  const std::uint64_t k = 50;
  const auto freq =
      MakeZipf({.n = n, .domain_size = 10000, .skew = 1.0, .seed = 31});
  ASSERT_TRUE(freq.ok());
  const ValueSet truth = ValueSet::FromFrequencies(*freq);
  auto table = Table::Create(*freq, PageConfig{8192, 64},
                             {.kind = LayoutKind::kRandom, .seed = 31});
  ASSERT_TRUE(table.ok());

  const std::uint64_t r = 30000;
  // Record-level baseline.
  Rng rng(37);
  auto record_sample =
      SampleRowsWithoutReplacement(truth.sorted_values(), r, rng);
  ASSERT_TRUE(record_sample.ok());
  std::sort(record_sample->begin(), record_sample->end());
  const auto record_hist = BuildHistogramFromSample(*record_sample, k, n);
  ASSERT_TRUE(record_hist.ok());
  const auto record_errors = ComputeHistogramErrors(*record_hist, truth);
  ASSERT_TRUE(record_errors.ok());

  // Block-level with the same tuple budget.
  IncrementalBlockSampler sampler(&*table, 41);
  std::vector<Value> block_sample =
      sampler.NextBatch(r / table->tuples_per_page(), nullptr);
  std::sort(block_sample.begin(), block_sample.end());
  const auto block_hist = BuildHistogramFromSample(block_sample, k, n);
  ASSERT_TRUE(block_hist.ok());
  const auto block_errors = ComputeHistogramErrors(*block_hist, truth);
  ASSERT_TRUE(block_errors.ok());

  // Same ballpark: block error within 2x of record error (both are noisy).
  EXPECT_LT(block_errors->f_max, std::max(2.0 * record_errors->f_max, 0.15));
}

}  // namespace
}  // namespace equihist
