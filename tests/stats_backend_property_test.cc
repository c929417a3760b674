// Cross-backend agreement properties: every backend a build can choose
// (ids 0, 1, 2 and 5) is built the way a shard builds it, one CVB run over
// the same table, and must tell the same story: identical totals, exact
// answers on degenerate/full-domain/boundary-aligned queries, and interior
// estimates within the classical k-bucket tolerance.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "stats/column_statistics.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr std::uint64_t kN = 10000;
constexpr std::uint64_t kBuckets = 20;

// Builds every buildable backend over `freq` laid out at random. The
// target f is far below any error a partial sample shows, so CVB reads
// every page and each histogram is the exact one: the boundary-aligned and
// interior properties below need that, and the sample size pins it.
std::map<HistogramBackendId, HistogramModelPtr> BuildAllBackends(
    const FrequencyVector& freq) {
  const Table table = Table::Create(freq, PageConfig{8192, 64},
                                    {.kind = LayoutKind::kRandom})
                          .value();
  std::map<HistogramBackendId, HistogramModelPtr> models;
  for (const HistogramBackendId id :
       {HistogramBackendId::kEquiHeight, HistogramBackendId::kEquiWidth,
        HistogramBackendId::kCompressed,
        HistogramBackendId::kIncrementalEquiDepth}) {
    BackendBuildOptions options;
    options.backend = id;
    options.buckets = kBuckets;
    options.f = 1e-6;
    const auto stats = BuildStatisticsWithBackend(table, options);
    EXPECT_TRUE(stats.ok())
        << static_cast<int>(id) << ": " << stats.status().ToString();
    if (!stats.ok()) continue;
    EXPECT_EQ(stats->sample_size, table.tuple_count())
        << static_cast<int>(id);
    models[id] = stats->model;
  }
  return models;
}

TEST(BackendPropertyTest, AllBackendsReportTheSameTotal) {
  for (const auto& [id, model] : BuildAllBackends(*MakeAllDistinct(kN))) {
    EXPECT_EQ(model->total(), kN) << static_cast<int>(id);
    EXPECT_GE(model->bucket_count(), 1u) << static_cast<int>(id);
    EXPECT_LT(model->lower_fence(), model->upper_fence())
        << static_cast<int>(id);
  }
}

TEST(BackendPropertyTest, DegenerateQueriesAreExactlyZeroEverywhere) {
  for (const auto& [id, model] : BuildAllBackends(*MakeAllDistinct(kN))) {
    // hi <= lo and fully out-of-domain queries: exactly zero, any backend.
    EXPECT_EQ(model->EstimateRangeCount({50, 50}), 0.0)
        << static_cast<int>(id);
    EXPECT_EQ(model->EstimateRangeCount({900, 100}), 0.0)
        << static_cast<int>(id);
    EXPECT_EQ(model->EstimateRangeCount(
                  {model->upper_fence() + 1, model->upper_fence() + 500}),
              0.0)
        << static_cast<int>(id);
    EXPECT_EQ(model->EstimateRangeCount(
                  {model->lower_fence() - 500, model->lower_fence()}),
              0.0)
        << static_cast<int>(id);
  }
}

TEST(BackendPropertyTest, FullDomainQueryRecoversTheTotalExactly) {
  for (const auto& [id, model] : BuildAllBackends(*MakeAllDistinct(kN))) {
    const RangeQuery everything{model->lower_fence(), model->upper_fence()};
    EXPECT_NEAR(model->EstimateRangeCount(everything),
                static_cast<double>(model->total()), 1e-6)
        << static_cast<int>(id);
    EXPECT_NEAR(model->EstimateRangeCount(everything) /
                    static_cast<double>(model->total()),
                1.0, 1e-9)
        << static_cast<int>(id);
  }
}

TEST(BackendPropertyTest, BoundaryAlignedQueriesAgreeAcrossBackends) {
  const auto freq = MakeAllDistinct(kN);
  const ValueSet data = ValueSet::FromFrequencies(*freq);
  const auto models = BuildAllBackends(*freq);
  // Queries aligned to multiples of n/k land on every family's bucket
  // boundaries for this data; interpolation error vanishes and the only
  // slack left is count-apportioning rounding (≤ 1 tuple per bucket).
  const std::uint64_t step = kN / kBuckets;
  for (std::uint64_t a = 0; a < kN; a += step) {
    for (std::uint64_t b = a + step; b <= kN; b += 5 * step) {
      const RangeQuery q{static_cast<Value>(a), static_cast<Value>(b)};
      const double truth =
          static_cast<double>(data.CountInRange(q.lo, q.hi));
      for (const auto& [id, model] : models) {
        EXPECT_NEAR(model->EstimateRangeCount(q), truth, kBuckets)
            << static_cast<int>(id) << " (" << q.lo << ", " << q.hi << "]";
      }
    }
  }
}

TEST(BackendPropertyTest, InteriorQueriesStayWithinTheBucketTolerance) {
  const auto freq = MakeAllDistinct(kN);
  const ValueSet data = ValueSet::FromFrequencies(*freq);
  const auto models = BuildAllBackends(*freq);
  // Arbitrary interior endpoints: linear interpolation on uniform data is
  // still near-exact; allow the classical few-buckets-of-slack bound that
  // holds for every family.
  const double tolerance = 4.0 * static_cast<double>(kN) / kBuckets;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    Value a = rng.NextInRange(1, kN);
    Value b = rng.NextInRange(1, kN);
    if (a > b) std::swap(a, b);
    if (a == b) continue;
    const RangeQuery q{a, b};
    const double truth = static_cast<double>(data.CountInRange(a, b));
    for (const auto& [id, model] : models) {
      EXPECT_NEAR(model->EstimateRangeCount(q), truth, tolerance)
          << static_cast<int>(id) << " (" << a << ", " << b << "]";
    }
  }
}

TEST(BackendPropertyTest, SkewedDataStillSumsAndBounds) {
  // On skewed data the families genuinely differ bucket by bucket, but the
  // global invariants hold for all of them.
  const auto freq = MakeZipf({.n = 50000, .domain_size = 2000, .skew = 1.5});
  const ValueSet data = ValueSet::FromFrequencies(*freq);
  for (const auto& [id, model] : BuildAllBackends(*freq)) {
    EXPECT_EQ(model->total(), data.size()) << static_cast<int>(id);
    const RangeQuery everything{model->lower_fence(), model->upper_fence()};
    EXPECT_NEAR(model->EstimateRangeCount(everything),
                static_cast<double>(data.size()), 1e-6)
        << static_cast<int>(id);
    // Estimates are never negative and never exceed the total.
    Rng rng(23);
    for (int i = 0; i < 200; ++i) {
      const Value a = rng.NextInRange(-100, 2100);
      const Value b = rng.NextInRange(-100, 2100);
      const double estimate = model->EstimateRangeCount({a, b});
      EXPECT_GE(estimate, 0.0) << static_cast<int>(id);
      EXPECT_LE(estimate, static_cast<double>(data.size()) + 1e-6)
          << static_cast<int>(id);
    }
  }
}

}  // namespace
}  // namespace equihist
