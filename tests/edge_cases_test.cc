// Edge-case and failure-injection tests across the stack: degenerate
// sizes, domain extremes, and pathological-but-legal inputs that a
// production statistics subsystem must survive.

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "core/compressed_histogram.h"
#include "core/cvb.h"
#include "core/error_metrics.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "query/index.h"
#include "query/planner.h"
#include "sampling/design_effect.h"
#include "stats/column_statistics.h"
#include "stats/serialization.h"
#include "stats/statistics_manager.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};

TEST(EdgeCaseTest, SingleTupleTableEndToEnd) {
  auto table = Table::CreateFromValues({42}, kPage);
  ASSERT_TRUE(table.ok());
  const auto stats = BuildStatisticsFullScan(*table, 10);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 1u);
  EXPECT_DOUBLE_EQ(stats->distinct_estimate, 1.0);
  EXPECT_DOUBLE_EQ(stats->EstimateRangeCount({41, 42}), 1.0);
  EXPECT_DOUBLE_EQ(stats->EstimateRangeCount({42, 50}), 0.0);

  CvbOptions options;
  options.k = 4;
  options.f = 0.5;
  const auto cvb = RunCvb(*table, options);
  ASSERT_TRUE(cvb.ok());
  EXPECT_EQ(cvb->histogram.total(), 1u);
}

TEST(EdgeCaseTest, SinglePageTableCvbExhaustsCleanly) {
  const auto freq = MakeAllDistinct(100);
  auto table = Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->page_count(), 1u);
  CvbOptions options;
  options.k = 10;
  options.f = 0.01;
  const auto result = RunCvb(*table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exhausted_table);
  EXPECT_EQ(result->tuples_sampled, 100u);
}

TEST(EdgeCaseTest, KEqualsOneEverywhere) {
  const auto freq = MakeZipf({.n = 5000, .domain_size = 100, .skew = 1.0});
  const ValueSet data = ValueSet::FromFrequencies(*freq);
  const auto h = BuildPerfectHistogram(data, 1);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->bucket_count(), 1u);
  EXPECT_TRUE(h->separators().empty());
  EXPECT_DOUBLE_EQ(
      EstimateRangeCount(*h, {data.min() - 1, data.max()}), 5000.0);
  const auto errors = ComputeHistogramErrors(*h, data);
  ASSERT_TRUE(errors.ok());
  EXPECT_DOUBLE_EQ(errors->delta_max, 0.0);  // one bucket is always perfect

  const auto compressed = CompressedHistogram::BuildPerfect(data, 1);
  ASSERT_TRUE(compressed.ok());
  EXPECT_NEAR(compressed->EstimateRangeCount({data.min() - 1, data.max()}),
              5000.0, 1.0);
}

TEST(EdgeCaseTest, NegativeValuesEndToEnd) {
  std::vector<FrequencyEntry> entries;
  for (Value v = -500; v <= -1; ++v) {
    entries.push_back(FrequencyEntry{v, 3});
  }
  FrequencyVector freq(entries);
  const ValueSet data = ValueSet::FromFrequencies(freq);
  auto table = Table::Create(freq, kPage, {.kind = LayoutKind::kRandom});
  ASSERT_TRUE(table.ok());

  const auto stats = BuildStatisticsFullScan(*table, 20);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->EstimateRangeCount({-501, -1}), 1500.0, 1.0);
  EXPECT_NEAR(stats->EstimateRangeCount({-250, -1}), 747.0, 10.0);

  std::vector<std::uint8_t> bytes;
  SerializeColumnStatistics(*stats, &bytes);
  const auto restored = DeserializeColumnStatistics(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->histogram().lower_fence(), stats->histogram().lower_fence());
}

TEST(EdgeCaseTest, ExtremeDomainBoundsSurviveSerialization) {
  const Value lo = std::numeric_limits<Value>::min() / 4;
  const Value hi = std::numeric_limits<Value>::max() / 4;
  const auto h = Histogram::Create({0}, {10, 10}, lo, hi);
  ASSERT_TRUE(h.ok());
  std::vector<std::uint8_t> bytes;
  SerializeHistogram(*h, &bytes);
  const auto restored = DeserializeHistogram(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->lower_fence(), lo);
  EXPECT_EQ(restored->upper_fence(), hi);
}

TEST(EdgeCaseTest, QueriesExactlyAtFences) {
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(100));
  const auto h = BuildPerfectHistogram(data, 10);
  ASSERT_TRUE(h.ok());
  // (lower_fence, lower_fence + 1] is exactly the smallest value.
  EXPECT_NEAR(EstimateRangeCount(*h, {h->lower_fence(), h->lower_fence() + 1}),
              1.0, 0.5);
  // (upper_fence, anything] is empty.
  EXPECT_DOUBLE_EQ(
      EstimateRangeCount(*h, {h->upper_fence(), h->upper_fence() + 100}), 0.0);
}

TEST(EdgeCaseTest, AllDuplicateColumnThroughTheWholeStack) {
  const auto freq = MakeConstant(10000, 7);
  auto table = Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom});
  ASSERT_TRUE(table.ok());
  const ValueSet data = ValueSet::FromFrequencies(*freq);

  const auto stats = BuildStatisticsFullScan(*table, 10);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->density, 1.0);
  EXPECT_DOUBLE_EQ(stats->distinct_estimate, 1.0);
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(7), 10000.0);
  EXPECT_DOUBLE_EQ(stats->EstimateRangeCount({6, 7}), 10000.0);
  EXPECT_DOUBLE_EQ(stats->EstimateRangeCount({7, 8}), 0.0);

  const auto index = OrderedIndex::Build(*table);
  ASSERT_TRUE(index.ok());
  IoStats io;
  const auto hit = index->RangeScanChecked(*table, {6, 7}, &io);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, 10000u);
  const auto miss = index->RangeScanChecked(*table, {7, 8}, nullptr);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, 0u);
}

TEST(EdgeCaseTest, ManagerHandlesTinyTables) {
  auto table = Table::CreateFromValues({1, 2, 3}, kPage);
  ASSERT_TRUE(table.ok());
  StatisticsManager manager({.buckets = 10, .f = 0.2});
  const auto stats = manager.GetOrBuildShared("tiny", *table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)->row_count, 3u);
  manager.RecordModifications("tiny", 100);
  EXPECT_TRUE(manager.IsStale("tiny"));
  EXPECT_TRUE(manager.EnsureFresh("tiny", *table).ok());
}

TEST(EdgeCaseTest, PlannerDegeneratesSafelyOnOnePageTables) {
  auto table = Table::CreateFromValues({1, 2, 3, 4, 5}, kPage);
  ASSERT_TRUE(table.ok());
  const auto stats = BuildStatisticsFullScan(*table, 2);
  ASSERT_TRUE(stats.ok());
  const auto choice = ChooseAccessPath(*stats->model, {0, 3},
                                       table->page_count(),
                                       table->tuples_per_page());
  // One page: the full scan costs one sequential read and must win.
  EXPECT_EQ(choice.path, AccessPath::kFullScan);
}

TEST(EdgeCaseTest, DesignEffectHandlesRaggedLastPage) {
  // 130 tuples over 128/page: second page holds 2 tuples.
  const auto freq = MakeAllDistinct(130);
  auto table = Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom});
  ASSERT_TRUE(table.ok());
  const auto deff = EstimateDesignEffect(*table, 2, 3);
  ASSERT_TRUE(deff.ok());
  EXPECT_GE(deff->design_effect, 1.0);
}

TEST(EdgeCaseTest, ApportionHandlesDegenerateWeights) {
  // All-zero weights: round-robin fallback still sums exactly.
  const std::vector<double> zeros(5, 0.0);
  const auto counts = ApportionProportionally(zeros, 12);
  std::uint64_t sum = 0;
  for (auto c : counts) sum += c;
  EXPECT_EQ(sum, 12u);

  // Single weight takes everything.
  const std::vector<double> one = {3.5};
  EXPECT_EQ(ApportionProportionally(one, 7),
            (std::vector<std::uint64_t>{7}));

  // Zero total spreads nothing.
  const std::vector<double> w = {1.0, 2.0};
  const auto none = ApportionProportionally(w, 0);
  EXPECT_EQ(none, (std::vector<std::uint64_t>{0, 0}));
}

TEST(EdgeCaseTest, FencesTouchingQueriesOnCompressed) {
  FrequencyVector freq({{10, 500}, {20, 500}});
  const ValueSet data = ValueSet::FromFrequencies(freq);
  const auto ch = CompressedHistogram::BuildPerfect(data, 4);
  ASSERT_TRUE(ch.ok());
  EXPECT_DOUBLE_EQ(ch->EstimateRangeCount({9, 10}), 500.0);
  EXPECT_DOUBLE_EQ(ch->EstimateRangeCount({10, 20}), 500.0);
  EXPECT_DOUBLE_EQ(ch->EstimateRangeCount({20, 30}), 0.0);
  EXPECT_DOUBLE_EQ(ch->EstimateRangeCount({0, 100}), 1000.0);
}

TEST(EdgeCaseTest, CvbMaxIterationsCapIsHonored) {
  const auto freq =
      MakeZipf({.n = 200000, .domain_size = 2000, .skew = 2.0, .seed = 3});
  auto table = Table::Create(*freq, kPage, {.kind = LayoutKind::kSorted});
  ASSERT_TRUE(table.ok());
  CvbOptions options;
  options.k = 100;
  options.f = 0.01;  // unreachable
  options.max_iterations = 2;
  options.schedule.kind = ScheduleKind::kLinear;  // tiny fixed steps
  const auto result = RunCvb(*table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->converged);
  EXPECT_FALSE(result->exhausted_table);
  EXPECT_EQ(result->iterations, 2u);
}

}  // namespace
}  // namespace equihist
