#include "stats/incremental_backend.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/gmp_incremental.h"
#include "common/rng.h"
#include "core/cvb.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"
#include "data/distribution.h"
#include "data/generator.h"
#include "data/workload.h"
#include "sampling/reservoir.h"
#include "stats/column_statistics.h"
#include "stats/histogram_backends.h"
#include "stats/serialization.h"
#include "stats/statistics_manager.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};

Table MakeTable(std::uint64_t n = 60000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 20, .skew = 1.0, .seed = seed});
  return Table::Create(*freq, kPage,
                       {.kind = LayoutKind::kRandom, .seed = seed})
      .value();
}

StatisticsManager::Options IncrementalOptions() {
  StatisticsManager::Options options;
  options.buckets = 32;
  options.default_backend = HistogramBackendId::kIncrementalEquiDepth;
  // Make any recorded DML cross the staleness threshold so EnsureFresh
  // actually refreshes in these tests.
  options.staleness_threshold = 1e-12;
  options.threads = 1;
  options.reservoir_capacity = 2048;
  return options;
}

TEST(IncrementalBackendTest, RegisteredInTheGlobalRegistry) {
  const auto backend = HistogramBackendRegistry::Global().Find(
      HistogramBackendId::kIncrementalEquiDepth);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(backend->name, "incremental-equi-depth");
}

// The ISSUE acceptance differential: after a long mixed DML stream, range
// estimates from the incrementally maintained histogram must stay within
// the configured Δmax bound of a from-scratch equi-depth build over the
// *same* backing reservoir — split/merge repair may lag a rebuild by
// bucket-granularity error, never by more.
TEST(IncrementalBackendTest, DifferentialDeltaMaxVsFromScratchBuild) {
  constexpr std::uint64_t kBuckets = 32;
  constexpr double kGamma = 0.5;
  auto maintained = IncrementalEquiDepth::Create({.buckets = kBuckets,
                                                  .gamma = kGamma,
                                                  .reservoir_capacity = 2048,
                                                  .seed = 5});
  ASSERT_TRUE(maintained.ok());

  // Seed phase: a Zipf stream, then a churn phase of mixed DML with a
  // drifting domain so splits, merges and recomputes all fire.
  const auto freq = MakeZipf({.n = 50000, .domain_size = 2500, .skew = 1.0});
  const auto values = ExpandShuffled(*freq, 11);
  for (Value v : values) maintained->Insert(v);
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBounded(2) == 0) {
      maintained->Insert(static_cast<Value>(2500 + rng.NextBounded(2500)));
    } else {
      maintained->Delete(static_cast<Value>(1 + rng.NextBounded(2500)));
    }
  }

  const auto snapshot = maintained->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const std::uint64_t n = snapshot->total();
  ASSERT_GT(n, 0u);

  const std::vector<Value> sample =
      maintained->backing_sample().SortedSample();
  const auto scratch = BuildHistogramFromSample(
      sample, kBuckets, maintained->backing_sample().population());
  ASSERT_TRUE(scratch.ok());

  // Δmax: one over-full bucket of the GMP invariant, (2+gamma)N/B. Range
  // estimates can disagree by at most ~2 buckets' mass on each side of the
  // range (boundary interpolation), hence the factor 2 slack.
  const double delta_max =
      (2.0 + kGamma) * static_cast<double>(n) / static_cast<double>(kBuckets);
  const Value lo = snapshot->lower_fence();
  const Value hi = snapshot->upper_fence();
  const Value span = std::max<Value>(hi - lo, 1);
  for (int q = 0; q < 200; ++q) {
    const Value a = lo + (span * q) / 200;
    const Value b = lo + (span * (q + 37)) / 200;
    const RangeQuery query{std::min(a, b), std::max(a, b) + 1};
    const double inc = EstimateRangeCount(*snapshot, query);
    const double ref = EstimateRangeCount(*scratch, query);
    EXPECT_LE(std::abs(inc - ref), 2.0 * delta_max)
        << "query (" << query.lo << ", " << query.hi << "]";
  }
}

// -- First build: the equi-height CVB build ---------------------------------

// Id 5's first build is id 0's build on the same options: one CVB run, so
// the same histogram and statistics bit for bit, on every layout. Id 0's
// build is the reference.
TEST(IncrementalBackendTest, FirstBuildEqualsTheEquiHeightBuild) {
  const auto freq =
      MakeZipf({.n = 60000, .domain_size = 3000, .skew = 1.0, .seed = 3});
  for (const LayoutKind layout :
       {LayoutKind::kRandom, LayoutKind::kPartiallyClustered,
        LayoutKind::kSorted}) {
    const Table table =
        Table::Create(*freq, kPage, {.kind = layout, .seed = 3}).value();
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      SCOPED_TRACE(std::string(LayoutKindToString(layout)) + " seed " +
                   std::to_string(seed));
      BackendBuildOptions options;
      options.buckets = 32;
      options.f = 0.2;
      options.seed = seed;
      const auto reference = BuildStatisticsWithBackend(table, options);
      options.backend = HistogramBackendId::kIncrementalEquiDepth;
      const auto built = BuildStatisticsWithBackend(table, options);
      ASSERT_TRUE(reference.ok()) << reference.status();
      ASSERT_TRUE(built.ok()) << built.status();

      const auto* model =
          dynamic_cast<const IncrementalEquiDepthModel*>(built->model.get());
      ASSERT_NE(model, nullptr);
      const Histogram& want = reference->histogram();
      const Histogram& got = model->histogram();
      EXPECT_EQ(got.separators(), want.separators());
      EXPECT_EQ(got.counts(), want.counts());
      EXPECT_EQ(got.lower_fence(), want.lower_fence());
      EXPECT_EQ(got.upper_fence(), want.upper_fence());
      EXPECT_EQ(built->density, reference->density);
      EXPECT_EQ(built->distinct_estimate, reference->distinct_estimate);
      EXPECT_EQ(built->heavy_hitters, reference->heavy_hitters);
      EXPECT_EQ(built->row_count, reference->row_count);
      EXPECT_FALSE(built->from_full_scan);
      EXPECT_EQ(built->sample_size, reference->sample_size);
      EXPECT_EQ(built->build_cost.pages_read,
                reference->build_cost.pages_read);
      EXPECT_EQ(built->build_cost.tuples_read,
                reference->build_cost.tuples_read);
      EXPECT_EQ(built->build_cost.pages_skipped,
                reference->build_cost.pages_skipped);
    }
  }
}

// Id 5's reservoir holds min(max(reservoir_capacity, k), r) values of the
// r-tuple sample RunCvb ends with on the same options, and represents the
// whole column.
TEST(IncrementalBackendTest, ReservoirIsSeededFromTheCvbSample) {
  const Table table = MakeTable();
  CvbOptions cvb;
  cvb.k = 32;
  cvb.f = 0.2;
  cvb.seed = 7;
  cvb.threads = 1;
  const auto reference = RunCvb(table, cvb);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::uint64_t r = reference->sample.size();
  ASSERT_EQ(r, reference->tuples_sampled);
  std::map<Value, std::uint64_t> sampled;
  reference->sample.view().ForEachDistinct(
      [&sampled](Value value, std::uint64_t count) { sampled[value] = count; });

  // Capacities below k, below r and above r.
  for (const std::uint64_t capacity : {std::uint64_t{8}, std::uint64_t{2048},
                                       r + 1000}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    BackendBuildOptions options;
    options.backend = HistogramBackendId::kIncrementalEquiDepth;
    options.buckets = cvb.k;
    options.f = cvb.f;
    options.gamma = cvb.gamma;
    options.seed = cvb.seed;
    options.reservoir_capacity = capacity;
    const auto built = BuildStatisticsWithBackend(table, options);
    ASSERT_TRUE(built.ok()) << built.status();
    const auto* model =
        dynamic_cast<const IncrementalEquiDepthModel*>(built->model.get());
    ASSERT_NE(model, nullptr);
    const BackingReservoir& reservoir = model->reservoir();
    EXPECT_EQ(reservoir.size(), std::min(std::max(capacity, cvb.k), r));
    EXPECT_EQ(reservoir.population(), table.tuple_count());
    std::map<Value, std::uint64_t> left = sampled;
    for (const Value value : reservoir.sample()) {
      auto it = left.find(value);
      ASSERT_TRUE(it != left.end() && it->second > 0)
          << value << " is not left in the CVB sample";
      --it->second;
    }
  }
}

TEST(IncrementalBackendTest, StatisticsRoundTripCarriesReservoir) {
  Table table = MakeTable();
  StatisticsManager manager(IncrementalOptions());
  const auto built = manager.GetOrBuildShared("t.x", table);
  ASSERT_TRUE(built.ok());
  const auto* model =
      dynamic_cast<const IncrementalEquiDepthModel*>((*built)->model.get());
  ASSERT_NE(model, nullptr);

  std::vector<std::uint8_t> bytes;
  SerializeColumnStatistics(**built, &bytes);
  const auto restored = DeserializeColumnStatistics(bytes);
  ASSERT_TRUE(restored.ok());
  const auto* restored_model =
      dynamic_cast<const IncrementalEquiDepthModel*>(restored->model.get());
  ASSERT_NE(restored_model, nullptr);
  EXPECT_EQ(restored_model->reservoir().sample(),
            model->reservoir().sample());
  EXPECT_EQ(restored_model->reservoir().population(),
            model->reservoir().population());
  EXPECT_EQ(restored_model->histogram().counts(),
            model->histogram().counts());
}

// -- StatisticsManager O(Δ) refresh path -------------------------------------

TEST(IncrementalManagerTest, ValueDmlRefreshesWithoutRebuilding) {
  Table table = MakeTable();
  StatisticsManager manager(IncrementalOptions());
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 1u);
  EXPECT_EQ(manager.incremental_refresh_count(), 0u);
  const IoStats cost_after_build = manager.total_build_cost();

  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    manager.RecordInsert("t.x", static_cast<Value>(1 + rng.NextBounded(3000)));
  }
  for (int i = 0; i < 200; ++i) {
    manager.RecordDelete("t.x", static_cast<Value>(1 + rng.NextBounded(3000)));
  }
  EXPECT_TRUE(manager.IsStale("t.x"));

  const auto fresh = manager.EnsureFresh("t.x", table);
  ASSERT_TRUE(fresh.ok());
  // The refresh was incremental: no table rebuild, zero additional I/O,
  // and the published row count tracks the DML (+500 - 200).
  EXPECT_EQ(manager.rebuild_count(), 1u);
  EXPECT_EQ(manager.incremental_refresh_count(), 1u);
  EXPECT_EQ((*fresh)->row_count, table.tuple_count() + 300);
  EXPECT_EQ(manager.total_build_cost().pages_read,
            cost_after_build.pages_read);
  EXPECT_EQ((*fresh)->model->backend_id(),
            HistogramBackendId::kIncrementalEquiDepth);
  EXPECT_FALSE(manager.IsStale("t.x"));
  EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);

  // And the refreshed snapshot serves: a full-domain range estimates ~n.
  const auto estimate = manager.EstimateRange(
      "t.x", table, RangeQuery{0, std::numeric_limits<Value>::max()});
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, static_cast<double>(table.tuple_count() + 300),
              static_cast<double>(table.tuple_count()) * 0.05);
}

TEST(IncrementalManagerTest, CountOnlyModificationsForceFullRebuild) {
  Table table = MakeTable();
  StatisticsManager manager(IncrementalOptions());
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  // Count-only DML carries no values: the reservoir cannot represent it,
  // so EnsureFresh must take the full-rebuild path.
  manager.RecordModifications("t.x", 1000);
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_EQ(manager.incremental_refresh_count(), 0u);

  // The rebuild reseeded everything, so value-carrying DML afterwards
  // refreshes incrementally again.
  manager.RecordInsert("t.x", 17);
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_EQ(manager.incremental_refresh_count(), 1u);
}

TEST(IncrementalManagerTest, RepairBudgetForcesFullRebuild) {
  Table table = MakeTable(/*n=*/20000);
  StatisticsManager::Options options = IncrementalOptions();
  options.incremental_repair_budget = 0.01;  // 1% of the live row count
  StatisticsManager manager(options);
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  // 5% churn blows the 1% budget: drift wins, the manager reseeds.
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    manager.RecordInsert("t.x", static_cast<Value>(1 + rng.NextBounded(1000)));
  }
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_EQ(manager.incremental_refresh_count(), 0u);
}

TEST(IncrementalManagerTest, NonIncrementalBackendIgnoresValueDml) {
  Table table = MakeTable();
  StatisticsManager::Options options = IncrementalOptions();
  options.default_backend = HistogramBackendId::kEquiHeight;
  StatisticsManager manager(options);
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  manager.RecordInsert("t.x", 42);
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  // Equi-height has no live maintenance state: staleness still resolves by
  // rebuild, exactly as before this subsystem existed.
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_EQ(manager.incremental_refresh_count(), 0u);
}

TEST(IncrementalManagerTest, RefreshIsDeterministicAcrossThreadCounts) {
  Table table = MakeTable();
  const auto run = [&table](std::uint64_t threads) {
    StatisticsManager::Options options = IncrementalOptions();
    options.threads = threads;
    StatisticsManager manager(options);
    EXPECT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
    Rng rng(21);
    for (int i = 0; i < 400; ++i) {
      if (rng.NextBounded(3) == 0) {
        manager.RecordDelete("t.x",
                             static_cast<Value>(1 + rng.NextBounded(3000)));
      } else {
        manager.RecordInsert("t.x",
                             static_cast<Value>(1 + rng.NextBounded(3000)));
      }
    }
    const auto fresh = manager.EnsureFresh("t.x", table);
    EXPECT_TRUE(fresh.ok());
    EXPECT_EQ(manager.incremental_refresh_count(), 1u);
    const auto* model = dynamic_cast<const IncrementalEquiDepthModel*>(
        (*fresh)->model.get());
    EXPECT_NE(model, nullptr);
    return model->histogram();
  };
  const Histogram one = run(1);
  const Histogram four = run(4);
  EXPECT_EQ(one.separators(), four.separators());
  EXPECT_EQ(one.counts(), four.counts());
}

TEST(IncrementalManagerTest, InstallSerializedRearmsMaintenance) {
  Table table = MakeTable();
  StatisticsManager source(IncrementalOptions());
  const auto built = source.GetOrBuildShared("t.x", table);
  ASSERT_TRUE(built.ok());
  std::vector<std::uint8_t> bytes;
  SerializeColumnStatistics(**built, &bytes);

  // A fresh manager restored from the catalog never touches the table:
  // the blob's reservoir re-arms maintenance, so DML + EnsureFresh go
  // through the O(Δ) path with zero builds.
  StatisticsManager restored(IncrementalOptions());
  ASSERT_TRUE(restored.InstallSerializedStatistics("t.x", bytes).ok());
  restored.RecordInsert("t.x", 123);
  ASSERT_TRUE(restored.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(restored.rebuild_count(), 0u);
  EXPECT_EQ(restored.incremental_refresh_count(), 1u);
}

TEST(IncrementalManagerTest, DropClearsMaintenanceState) {
  Table table = MakeTable();
  StatisticsManager manager(IncrementalOptions());
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_TRUE(manager.Drop("t.x"));
  // DML against the dropped column is ignored; the next access is a
  // plain first build.
  manager.RecordInsert("t.x", 1);
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
}

}  // namespace
}  // namespace equihist
