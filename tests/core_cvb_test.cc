#include "core/cvb.h"

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/error_metrics.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "distinct/frequency_profile.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};  // 128 tuples per page

Table MakeZipfTable(std::uint64_t n, double skew, LayoutKind layout,
                    std::uint64_t seed = 7) {
  const auto freq = MakeZipf(
      {.n = n, .domain_size = n / 20, .skew = skew, .seed = seed});
  return Table::Create(*freq, kPage, {.kind = layout, .seed = seed}).value();
}

ValueSet GroundTruth(std::uint64_t n, double skew, std::uint64_t seed = 7) {
  const auto freq = MakeZipf(
      {.n = n, .domain_size = n / 20, .skew = skew, .seed = seed});
  return ValueSet::FromFrequencies(*freq);
}

TEST(CvbTest, ConvergesOnRandomLayout) {
  Table table = MakeZipfTable(200000, 1.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 100;
  options.f = 0.2;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged || result->exhausted_table);
  EXPECT_GT(result->tuples_sampled, 0u);
  EXPECT_EQ(result->io.pages_read, result->blocks_sampled);
}

TEST(CvbTest, ResultHistogramMeetsErrorTargetOnRandomLayout) {
  const std::uint64_t n = 200000;
  Table table = MakeZipfTable(n, 1.0, LayoutKind::kRandom);
  ValueSet truth = GroundTruth(n, 1.0);
  CvbOptions options;
  options.k = 100;
  options.f = 0.2;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  // Zipf(1) at this scale has heavy values above n/k, so the raw
  // bucket-count error is unavoidably large; the duplicate-aware
  // claimed-count error is what the stopping rule controls. Allow 2x slack
  // for cross-validation noise (Theorem 7 distinguishes f/2 from 2f).
  const auto claimed = ComputeClaimedErrors(result->histogram, truth);
  ASSERT_TRUE(claimed.ok());
  EXPECT_LT(claimed->f_max, 2.0 * options.f);
}

TEST(CvbTest, SortedLayoutSamplesMoreThanRandom) {
  // With the default 5*sqrt(n) initial budget (~25 pages of ~3125) the
  // random layout converges quickly while the sorted layout's
  // block-correlated samples keep failing validation (scenario (b) of
  // Section 4.1).
  const std::uint64_t n = 400000;
  Table random_table = MakeZipfTable(n, 1.0, LayoutKind::kRandom);
  Table sorted_table = MakeZipfTable(n, 1.0, LayoutKind::kSorted);
  CvbOptions options;
  options.k = 50;
  options.f = 0.3;
  const auto random_result = RunCvb(random_table, options);
  const auto sorted_result = RunCvb(sorted_table, options);
  ASSERT_TRUE(random_result.ok());
  ASSERT_TRUE(sorted_result.ok());
  EXPECT_GT(sorted_result->blocks_sampled, random_result->blocks_sampled);
}

TEST(CvbTest, ExhaustsTinyTableAndIsExact) {
  const auto freq = MakeAllDistinct(1000);
  Table table =
      Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom}).value();
  ValueSet truth = ValueSet::FromFrequencies(*freq);
  CvbOptions options;
  options.k = 10;
  options.f = 0.01;  // unreachable before the 8-page table is exhausted
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exhausted_table);
  EXPECT_EQ(result->tuples_sampled, 1000u);
  const auto errors = ComputeHistogramErrors(result->histogram, truth);
  ASSERT_TRUE(errors.ok());
  EXPECT_LE(errors->delta_max, 1.0);  // exact up to integer rounding
}

TEST(CvbTest, IterationLogIsCoherent) {
  Table table = MakeZipfTable(100000, 2.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 50;
  options.f = 0.25;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->log.empty());
  std::uint64_t prev_accumulated = 0;
  for (const auto& entry : result->log) {
    EXPECT_GT(entry.fresh_blocks, 0u);
    EXPECT_GT(entry.fresh_tuples, 0u);
    EXPECT_GT(entry.accumulated_tuples, prev_accumulated);
    prev_accumulated = entry.accumulated_tuples;
    EXPECT_EQ(entry.threshold, options.f);
  }
  if (result->converged) {
    EXPECT_TRUE(result->log.back().passed);
    EXPECT_LT(result->log.back().validation_error, options.f);
  }
}

TEST(CvbTest, DeterministicInSeed) {
  Table table = MakeZipfTable(50000, 1.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 50;
  options.f = 0.3;
  options.seed = 99;
  const auto a = RunCvb(table, options);
  const auto b = RunCvb(table, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tuples_sampled, b->tuples_sampled);
  EXPECT_EQ(a->histogram.separators(), b->histogram.separators());
}

TEST(CvbTest, AllValidationMetricsConvergeOrExhaust) {
  Table table = MakeZipfTable(100000, 0.0, LayoutKind::kRandom);
  for (auto metric : {CvbValidationMetric::kClaimedDeviation,
                      CvbValidationMetric::kFractionalMaxError,
                      CvbValidationMetric::kRelativeDeviation}) {
    CvbOptions options;
    options.k = 50;
    options.f = 0.25;
    options.metric = metric;
    const auto result = RunCvb(table, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->converged || result->exhausted_table);
  }
}

TEST(CvbTest, ClaimedDeviationMeetsTargetOnDistinctData) {
  // On duplicate-free data the claimed-deviation metric equals the paper's
  // Definition 3 statistic, and the resulting histogram's claimed-count
  // error against the truth should respect the target (2x Theorem 7 gap).
  const auto freq = MakeAllDistinct(200000);
  Table table =
      Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom}).value();
  ValueSet truth = ValueSet::FromFrequencies(*freq);
  CvbOptions options;
  options.k = 50;
  options.f = 0.25;
  options.metric = CvbValidationMetric::kClaimedDeviation;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->converged || result->exhausted_table);
  const auto claimed = ComputeClaimedErrors(result->histogram, truth);
  ASSERT_TRUE(claimed.ok());
  EXPECT_LT(claimed->f_max, 2.0 * options.f);
}

TEST(CvbTest, OneTuplePerBlockValidationStillWorks) {
  Table table = MakeZipfTable(100000, 1.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 50;
  options.f = 0.25;
  options.style = CvbValidationStyle::kOneTuplePerBlock;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged || result->exhausted_table);
}

TEST(CvbTest, InitialBlocksOverrideIsHonored) {
  Table table = MakeZipfTable(100000, 1.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 50;
  options.f = 0.25;
  options.initial_blocks_override = 3;
  options.schedule.kind = ScheduleKind::kLinear;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->log.empty());
  // Linear schedule: every fresh batch is 3 blocks.
  EXPECT_EQ(result->log.front().fresh_blocks, 3u);
}

TEST(CvbTest, ReportsSampleStatistics) {
  Table table = MakeZipfTable(100000, 2.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 50;
  options.f = 0.3;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->sample_distinct, 0u);
  EXPECT_GT(result->density_estimate, 0.0);  // Zipf(2) is heavily duplicated
  EXPECT_GT(result->sampling_fraction, 0.0);
  EXPECT_LE(result->sampling_fraction, 1.0);
}

TEST(CvbTest, ValidatesOptions) {
  Table table = MakeZipfTable(10000, 0.0, LayoutKind::kRandom);
  CvbOptions bad;
  bad.k = 0;
  EXPECT_FALSE(RunCvb(table, bad).ok());
  bad = CvbOptions{};
  bad.f = 0.0;
  EXPECT_FALSE(RunCvb(table, bad).ok());
  bad = CvbOptions{};
  bad.f = 2.0;
  EXPECT_FALSE(RunCvb(table, bad).ok());
  bad = CvbOptions{};
  bad.gamma = 0.0;
  EXPECT_FALSE(RunCvb(table, bad).ok());
  bad = CvbOptions{};
  bad.max_iterations = 0;
  EXPECT_FALSE(RunCvb(table, bad).ok());
}

TEST(CvbTest, ErrorAdaptiveSteppingConverges) {
  Table table = MakeZipfTable(200000, 1.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 50;
  options.f = 0.2;
  options.error_adaptive_stepping = true;
  const auto adaptive = RunCvb(table, options);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_TRUE(adaptive->converged || adaptive->exhausted_table);
  // Batch sizes after the first validation must follow the error feedback,
  // not the doubling schedule: at least one batch differs from doubling.
  options.error_adaptive_stepping = false;
  const auto fixed = RunCvb(table, options);
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(fixed->converged || fixed->exhausted_table);
}

TEST(CvbTest, SampleProfileAndHeavyHittersAreReported) {
  Table table = MakeZipfTable(100000, 2.0, LayoutKind::kRandom);
  CvbOptions options;
  options.k = 50;
  options.f = 0.25;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  const FrequencyProfile profile =
      FrequencyProfile::FromSorted(result->sample.view());
  EXPECT_EQ(profile.sample_size(), result->tuples_sampled);
  EXPECT_EQ(profile.distinct_in_sample(), result->sample_distinct);
  EXPECT_EQ(profile.f(1), result->sample_singletons);
  // Zipf(2): the dominant value (~60% of tuples) must be flagged heavy with
  // a count in the right ballpark.
  ASSERT_FALSE(result->heavy_hitters.empty());
  std::uint64_t max_count = 0;
  for (const auto& h : result->heavy_hitters) {
    max_count = std::max(max_count, h.count);
  }
  EXPECT_GT(max_count, 100000u / 3);
  EXPECT_LT(max_count, 100000u);
}

TEST(CvbTest, ConstantColumnConvergesImmediately) {
  // Every tuple identical: any histogram is "right"; the fractional metric
  // sees matching fractions and stops at the first validation.
  const auto freq = MakeConstant(50000, 7);
  Table table =
      Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom}).value();
  CvbOptions options;
  options.k = 10;
  options.f = 0.2;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged || result->exhausted_table);
}

// FNV-1a over a frequency profile's dense f_j: pins every entry of a
// profile too long to spell out.
std::uint64_t ProfileHash(std::span<const std::uint64_t> dense) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint64_t f : dense) {
    hash ^= f;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Golden CVB output on fixed tables and seed, for both validation styles
// and every metric. The values come from a build that sorted every batch
// and merged tuple vectors, so counting, the runs merge and validation
// must reproduce it bit for bit, and so must the statistics read off the
// final sample. It guards in particular that the one-tuple-per-block picks
// come from each fresh batch in page order: picks drawn from a sorted
// batch change the errors below.
// Table 0 is Zipf(1) over n/20 values, table 1 duplicate-free and table 2
// Zipf(2), the only one with heavy hitters at k = 8.
// Sample forms (Sample::Stage, traced from a run): every row holds its
// initial batch as runs, sorted, since 2,304 tuples span at least four
// keys each (9,985 on table 0, 9,809 on table 2, 188,416 on table 1).
// Every table-0 row then holds R as a key window from iteration 1 on (R and
// the batch hold 4,608 tuples over 9,986 keys), and the table-2 row
// converges at iteration 1 in the window (4,608 tuples over 9,916 keys).
// The table-1 row sorts and merges its batches in runs through iteration
// 4 and enters the window at iteration 5: 73,728 tuples over 199,680 keys.
TEST(CvbTest, GoldenOutputForEveryValidationStyleAndMetric) {
  struct Golden {
    int table;
    CvbValidationStyle style;
    CvbValidationMetric metric;
    std::uint64_t iterations;
    std::uint64_t tuples_sampled;
    std::vector<double> validation_errors;  // log[i].validation_error
    std::vector<Value> separators;
    std::vector<std::uint64_t> counts;
    double density_estimate;
    std::uint64_t sample_distinct;
    // The final sample's frequency profile, FromSorted(sample.view()).
    std::size_t profile_size;    // its dense().size()
    std::uint64_t profile_hash;  // ProfileHash(its dense())
    std::vector<CompressedHistogram::Singleton> heavy_hitters;
  };
  const Golden goldens[] = {
      {0, CvbValidationStyle::kAllTuples,
       CvbValidationMetric::kFractionalMaxError, 4, 36864,
       {0x1.78e38e38e38e4p-1, 0x1.7cc0532ae21cap-2, 0x1.1b8e38e38e398p-2,
        0x1.8638e38e38e38p-3},
       {863, 1543, 3123, 4660, 6169, 7603, 8140},
       {28158, 21842, 25000, 28863, 21137, 43316, 6689, 24995},
       0x1.2b0bbcb936397p-6, 6194, 3764, 0xe3ab1c878fe2314bull, {}},
      {0, CvbValidationStyle::kAllTuples,
       CvbValidationMetric::kRelativeDeviation, 7, 200000,
       {0x1.78e38e38e38e4p-1, 0x1.5eaaaaaaaaaabp+0, 0x1.8f8e38e38e38ep-1,
        0x1.8838e38e38e39p-1, 0x1.6855555555555p-1, 0x1.71c3f2a7b37d4p-1,
        0x1.6c4d3c6b2242p-1},
       {863, 1573, 3228, 4660, 6227, 7603, 8197},
       {26957, 23048, 25043, 28278, 22519, 41283, 7872, 25000},
       0x1.193bceb864fdap-6, 10000, 20435, 0xc01dbf8c1a633683ull, {}},
      {0, CvbValidationStyle::kAllTuples,
       CvbValidationMetric::kClaimedDeviation, 4, 36864,
       {0x1.78e38e38e38e4p-1, 0x1.37fcf110315ecp-1, 0x1.439214e1684d9p-2,
        0x1.bf122d58e6c2bp-3},
       {863, 1543, 3123, 4660, 6169, 7603, 8140},
       {28158, 21842, 25000, 28863, 21137, 43316, 6689, 24995},
       0x1.2b0bbcb936397p-6, 6194, 3764, 0xe3ab1c878fe2314bull, {}},
      {0, CvbValidationStyle::kOneTuplePerBlock,
       CvbValidationMetric::kFractionalMaxError, 3, 18432,
       {0x1p+0, 0x1.c977ab2bedd27p-1, 0x1.93da7ce841727p-3},
       {863, 1657, 3365, 4660, 6232, 7603, 8064},
       {28223, 21799, 24978, 26563, 23470, 44368, 5653, 24946},
       0x1.388489bdf6643p-6, 4116, 1954, 0x4a27b891118629e9ull, {}},
      {0, CvbValidationStyle::kOneTuplePerBlock,
       CvbValidationMetric::kRelativeDeviation, 7, 200000,
       {0x1p+0, 0x1.2aaaaaaaaaaabp+1, 0x1.8e38e38e38e39p-1,
        0x1.aaaaaaaaaaaabp-1, 0x1.71c71c71c71c7p-1, 0x1.8p-1,
        0x1.9ed5059b184acp-1},
       {863, 1573, 3228, 4660, 6227, 7603, 8197},
       {26957, 23048, 25043, 28278, 22519, 41283, 7872, 25000},
       0x1.193bceb864fdap-6, 10000, 20435, 0xc01dbf8c1a633683ull, {}},
      {0, CvbValidationStyle::kOneTuplePerBlock,
       CvbValidationMetric::kClaimedDeviation, 3, 18432,
       {0x1.08e368f08462p+0, 0x1.92a92332c35a1p+0, 0x1.fe409b89ed0cep-3},
       {863, 1657, 3365, 4660, 6232, 7603, 8064},
       {28223, 21799, 24978, 26563, 23470, 44368, 5653, 24946},
       0x1.388489bdf6643p-6, 4116, 1954, 0x4a27b891118629e9ull, {}},
      {1, CvbValidationStyle::kAllTuples,
       CvbValidationMetric::kFractionalMaxError, 7, 200000,
       {0x1.38e38e38e38e4p+0, 0x1.8e38e38e38e3ap-1, 0x1p+0,
        0x1.38e38e38e38e4p-1, 0x1.5555555555554p-2, 0x1.a4cf4a8255dap-2,
        0x1.4b5e0db4027ep-2},
       {25000, 50000, 75000, 100000, 125000, 150000, 175000},
       {25000, 25000, 25000, 25000, 25000, 25000, 25000, 25000},
       0x0p+0, 200000, 2, 0x9354807b6a31c2dull, {}},
      {2, CvbValidationStyle::kAllTuples,
       CvbValidationMetric::kFractionalMaxError, 1, 4608,
       {0x1.71c71c71c71cp-5},
       {863, 933, 4660, 7603, 7603, 7603, 7603},
       {30512, 30556, 15234, 4123, 0, 0, 116710, 2865},
       0x1.7c45c4aa87e4dp-2, 89, 2690, 0xa0a34e1111fa35ecull,
       {{933, 29991}, {7603, 116710}}},
  };
  const Table tables[] = {
      MakeZipfTable(200000, 1.0, LayoutKind::kPartiallyClustered),
      Table::Create(*MakeAllDistinct(200000), kPage,
                    {.kind = LayoutKind::kSorted, .seed = 7})
          .value(),
      MakeZipfTable(200000, 2.0, LayoutKind::kPartiallyClustered),
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(testing::Message()
                 << "table " << golden.table << " style "
                 << static_cast<int>(golden.style) << " metric "
                 << static_cast<int>(golden.metric));
    CvbOptions options;
    options.k = 8;
    options.f = 0.25;
    options.seed = 2024;
    options.style = golden.style;
    options.metric = golden.metric;
    const auto result = RunCvb(tables[golden.table], options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->iterations, golden.iterations);
    EXPECT_EQ(result->tuples_sampled, golden.tuples_sampled);
    ASSERT_EQ(result->log.size(), golden.validation_errors.size());
    for (std::size_t i = 0; i < result->log.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result->log[i].validation_error),
                std::bit_cast<std::uint64_t>(golden.validation_errors[i]))
          << "iteration " << i + 1;
    }
    EXPECT_EQ(result->histogram.separators(), golden.separators);
    EXPECT_EQ(result->histogram.counts(), golden.counts);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result->density_estimate),
              std::bit_cast<std::uint64_t>(golden.density_estimate));
    EXPECT_EQ(result->sample_distinct, golden.sample_distinct);
    const FrequencyProfile profile =
        FrequencyProfile::FromSorted(result->sample.view());
    EXPECT_EQ(profile.dense().size(), golden.profile_size);
    EXPECT_EQ(ProfileHash(profile.dense()), golden.profile_hash);
    EXPECT_EQ(result->sample_singletons, profile.f(1));
    EXPECT_EQ(result->heavy_hitters, golden.heavy_hitters);
  }
}

}  // namespace
}  // namespace equihist
