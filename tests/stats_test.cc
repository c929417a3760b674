#include "stats/column_statistics.h"
#include "stats/statistics_manager.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/density.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "stats/serialization.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};

Table SkewedTable(std::uint64_t n = 200000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.5, .seed = seed});
  return Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom, .seed = seed})
      .value();
}

ValueSet SkewedTruth(std::uint64_t n = 200000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.5, .seed = seed});
  return ValueSet::FromFrequencies(*freq);
}

TEST(ColumnStatisticsTest, FullScanIsExact) {
  Table table = SkewedTable();
  ValueSet truth = SkewedTruth();
  const auto stats = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->from_full_scan);
  EXPECT_EQ(stats->row_count, truth.size());
  EXPECT_DOUBLE_EQ(stats->distinct_estimate,
                   static_cast<double>(truth.DistinctCount()));
  EXPECT_EQ(stats->build_cost.pages_read, table.page_count());
  EXPECT_EQ(stats->sample_size, truth.size());
}

TEST(ColumnStatisticsTest, SampledCostsLessThanFullScan) {
  Table table = SkewedTable();
  CvbOptions options;
  options.k = 50;
  options.f = 0.2;
  const auto sampled = BuildStatisticsSampled(table, options);
  const auto full = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(sampled->from_full_scan);
  EXPECT_LT(sampled->build_cost.pages_read, full->build_cost.pages_read);
}

TEST(ColumnStatisticsTest, SampledStatisticsTrackTruth) {
  Table table = SkewedTable();
  ValueSet truth = SkewedTruth();
  CvbOptions options;
  options.k = 50;
  options.f = 0.15;
  const auto stats = BuildStatisticsSampled(table, options);
  ASSERT_TRUE(stats.ok());

  const double true_density = ComputeDensity(truth.sorted_values());
  EXPECT_NEAR(stats->density, true_density, 0.25 * true_density);

  // rel-error of the distinct estimate is small even if the ratio is not.
  const double d = static_cast<double>(truth.DistinctCount());
  EXPECT_LT(std::abs(d - stats->distinct_estimate) /
                static_cast<double>(truth.size()),
            0.05);
}

TEST(ColumnStatisticsTest, EqualityEstimatePinsHeavyHitters) {
  // One value holds 40% of the table.
  FrequencyVector fv({{100, 40000}, {200, 30000}, {300, 30000}});
  ValueSet truth = ValueSet::FromFrequencies(fv);
  Table table = Table::Create(fv, kPage, {.kind = LayoutKind::kRandom}).value();
  const auto stats = BuildStatisticsFullScan(table, 10);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->heavy_hitters.size(), 3u);
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(100), 40000.0);
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(200), 30000.0);
  // Out-of-domain probes estimate zero.
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(-5), 0.0);
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(9999), 0.0);
}

TEST(ColumnStatisticsTest, EqualityEstimateFallsBackForLightValues) {
  Table table = SkewedTable();
  ValueSet truth = SkewedTruth();
  const auto stats = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(stats.ok());
  // Pick a light (non-heavy) value: the largest value in the domain is in
  // the Zipf tail with overwhelming probability under shuffled placement.
  const Value probe = truth.max();
  const double estimate = stats->EstimateEqualityCount(probe);
  const double actual =
      static_cast<double>(truth.CountInRange(probe - 1, probe));
  // The fallback is the average light multiplicity: same order, not exact.
  EXPECT_GT(estimate, 0.0);
  EXPECT_LT(estimate, 50.0 * std::max(actual, 1.0));
}

TEST(ColumnStatisticsTest, DistinctFractionAndToString) {
  Table table = SkewedTable();
  const auto stats = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->EstimateDistinctFraction(), 0.0);
  EXPECT_LE(stats->EstimateDistinctFraction(), 1.0);
  EXPECT_NE(stats->ToString().find("full scan"), std::string::npos);
}

// The serialized statistics of a fault-free BuildStatisticsWithBackend of
// every buildable backend, on a random and a partially clustered Zipf
// table, frozen as byte counts and FNV-1a 64 hashes. Each build is one CVB
// run, so a change to the pages it reads, to the sample's statistics or to
// what a backend publishes from that sample moves a hash.
TEST(ColumnStatisticsTest, GoldenBackendBuildsKeepTheirBytes) {
  struct Golden {
    LayoutKind layout;
    HistogramBackendId backend;
    std::size_t bytes;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {LayoutKind::kRandom, HistogramBackendId::kEquiHeight, 166,
       0xaecb364969515ccfull},
      {LayoutKind::kRandom, HistogramBackendId::kEquiWidth, 124,
       0xd72921097d2c8db9ull},
      {LayoutKind::kRandom, HistogramBackendId::kCompressed, 189,
       0x869e6bbe2eeb2a8dull},
      {LayoutKind::kRandom, HistogramBackendId::kIncrementalEquiDepth, 8365,
       0x3e3cc62c6c485046ull},
      {LayoutKind::kPartiallyClustered, HistogramBackendId::kEquiHeight, 161,
       0x3cd5ed0ddce9d6b2ull},
      {LayoutKind::kPartiallyClustered, HistogramBackendId::kEquiWidth, 120,
       0x8aa6925c70a999e5ull},
      {LayoutKind::kPartiallyClustered, HistogramBackendId::kCompressed, 184,
       0x5fc77880fbce7457ull},
      {LayoutKind::kPartiallyClustered,
       HistogramBackendId::kIncrementalEquiDepth, 8356,
       0x3e5027b3a1736faeull},
  };
  const auto freq = MakeZipf(
      {.n = 100000, .domain_size = 5000, .skew = 1.2, .seed = 11});
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(std::string(LayoutKindToString(golden.layout)) + " id " +
                 std::to_string(static_cast<int>(golden.backend)));
    const Table table =
        Table::Create(*freq, kPage, {.kind = golden.layout, .seed = 11})
            .value();
    BackendBuildOptions options;
    options.backend = golden.backend;
    options.buckets = 32;
    options.f = 0.2;
    options.seed = 5;
    const auto stats = BuildStatisticsWithBackend(table, options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    std::vector<std::uint8_t> bytes;
    SerializeColumnStatistics(*stats, &bytes);
    std::uint64_t hash = kFnv1aOffsetBasis;
    for (const std::uint8_t byte : bytes) hash = Fnv1aRound(hash, byte);
    EXPECT_EQ(bytes.size(), golden.bytes);
    EXPECT_EQ(hash, golden.hash);
  }
}

TEST(StatisticsManagerTest, BuildsOnFirstAccessAndCaches) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  const auto first = manager.GetOrBuildShared("t.x", table);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(manager.rebuild_count(), 1u);
  const auto second = manager.GetOrBuildShared("t.x", table);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // same cached pointer
  EXPECT_EQ(manager.rebuild_count(), 1u);
  EXPECT_TRUE(manager.Has("t.x"));
  EXPECT_EQ(manager.size(), 1u);
}

TEST(StatisticsManagerTest, StalenessFollowsModificationCounter) {
  Table table = SkewedTable();
  StatisticsManager manager(
      {.buckets = 50, .f = 0.2, .staleness_threshold = 0.2});
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_FALSE(manager.IsStale("t.x"));
  manager.RecordModifications("t.x", table.tuple_count() / 10);  // 10%
  EXPECT_FALSE(manager.IsStale("t.x"));
  manager.RecordModifications("t.x", table.tuple_count() / 4);  // +25%
  EXPECT_TRUE(manager.IsStale("t.x"));
}

TEST(StatisticsManagerTest, EnsureFreshRebuildsWhenStale) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  manager.RecordModifications("t.x", table.tuple_count());  // 100% modified
  const auto fresh = manager.EnsureFresh("t.x", table);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_FALSE(manager.IsStale("t.x"));
}

TEST(StatisticsManagerTest, EnsureFreshNoopWhenFresh) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 1u);
}

TEST(StatisticsManagerTest, DropForgetsColumn) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_TRUE(manager.Drop("t.x"));
  EXPECT_FALSE(manager.Drop("t.x"));
  EXPECT_FALSE(manager.Has("t.x"));
}

TEST(StatisticsManagerTest, TracksCumulativeBuildCost) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.GetOrBuildShared("a", table).ok());
  const std::uint64_t after_one = manager.total_build_cost().pages_read;
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(manager.GetOrBuildShared("b", table).ok());
  EXPECT_GT(manager.total_build_cost().pages_read, after_one);
}

// -- Modification accounting across a build -----------------------------------
//
// A deterministic mid-build hook: an external backend (id from the >= 128
// range) whose build step runs a test-settable callback before returning a
// trivial model. Lets a single-threaded test interleave DML with a build
// at an exact point.

constexpr auto kMidBuildHookId = static_cast<HistogramBackendId>(201);

std::function<void()>& MidBuildHook() {
  static std::function<void()> hook;
  return hook;
}

class MidBuildHookModel final : public HistogramModel {
 public:
  MidBuildHookModel(std::uint64_t total, Value lo, Value hi)
      : total_(total), lo_(lo), hi_(hi) {}

  HistogramBackendId backend_id() const override { return kMidBuildHookId; }
  double EstimateRangeCount(const RangeQuery& query) const override {
    return (query.hi > lo_ && query.lo < hi_) ? static_cast<double>(total_)
                                              : 0.0;
  }
  std::uint64_t bucket_count() const override { return 1; }
  std::uint64_t total() const override { return total_; }
  Value lower_fence() const override { return lo_; }
  Value upper_fence() const override { return hi_; }
  std::size_t MemoryBytes() const override { return sizeof(*this); }
  std::string Describe() const override { return "MidBuildHook"; }
  void SerializePayload(std::vector<std::uint8_t>*) const override {}

 private:
  std::uint64_t total_;
  Value lo_;
  Value hi_;
};

void RegisterMidBuildHookBackendOnce() {
  static const bool registered = [] {
    HistogramBackendRegistry::Backend backend;
    backend.name = "mid-build-hook";
    backend.build_from_sample =
        [](std::span<const Value> sample, std::uint64_t,
           std::uint64_t population_size) -> Result<HistogramModelPtr> {
      if (sample.empty()) {
        return Status::InvalidArgument("mid-build hook needs a sample");
      }
      if (MidBuildHook()) MidBuildHook()();
      return HistogramModelPtr(std::make_shared<MidBuildHookModel>(
          population_size, sample.front() - 1, sample.back()));
    };
    backend.deserialize_payload =
        [](std::span<const std::uint8_t>,
           std::size_t* consumed) -> Result<HistogramModelPtr> {
      *consumed = 0;
      return HistogramModelPtr(std::make_shared<MidBuildHookModel>(0, 0, 1));
    };
    const Status status = HistogramBackendRegistry::Global().Register(
        kMidBuildHookId, std::move(backend));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return true;
  }();
  (void)registered;
}

// Regression: publishing a build used to reset the modification counter to
// zero wholesale — erasing DML recorded while the build was running, so a
// column modified during its own rebuild looked fresh. The publish now
// subtracts only the modifications the build actually observed at capture
// time.
TEST(StatisticsManagerTest, ModificationsDuringBuildSurviveThePublish) {
  RegisterMidBuildHookBackendOnce();
  Table table = SkewedTable();
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.staleness_threshold = 0.2;
  options.threads = 1;
  options.column_backends["t.x"] = kMidBuildHookId;
  StatisticsManager manager(options);
  MidBuildHook() = [&manager, &table] {
    manager.RecordModifications("t.x", table.tuple_count());
  };
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  MidBuildHook() = nullptr;
  // 100% of the rows changed while the build ran: the snapshot just
  // published is already stale and the next EnsureFresh must rebuild.
  EXPECT_TRUE(manager.IsStale("t.x"));
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_FALSE(manager.IsStale("t.x"));
}

// The complementary direction: modifications recorded *before* a build
// starts are consumed by the publish (exactly those, no more).
TEST(StatisticsManagerTest, PublishConsumesOnlyCapturedModifications) {
  RegisterMidBuildHookBackendOnce();
  Table table = SkewedTable();
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.staleness_threshold = 0.2;
  options.threads = 1;
  options.column_backends["t.x"] = kMidBuildHookId;
  StatisticsManager manager(options);
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  manager.RecordModifications("t.x", table.tuple_count());
  ASSERT_TRUE(manager.IsStale("t.x"));
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_FALSE(manager.IsStale("t.x"));
}

// Regression: a Drop landing between a first-access build and the serving
// path's capture made the capture miss; the serving path rebuilt and
// recaptured up to three times, then failed the call with kInternal (the
// TSan flake in ConcurrentBatchServingDuringRebuildsAndDrops). The build
// here drops its own column every time, so every capture misses: the call
// must answer from the snapshot it built, and must not cache it.
TEST(StatisticsManagerTest, BatchServesItsOwnBuildWhenDropWinsTheCapture) {
  RegisterMidBuildHookBackendOnce();
  Table table = SkewedTable();
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.threads = 1;
  options.column_backends["t.x"] = kMidBuildHookId;
  StatisticsManager manager(options);
  int builds = 0;
  MidBuildHook() = [&manager, &builds] {
    ++builds;
    manager.Drop("t.x");
  };
  const RangeQuery query{0, static_cast<Value>(table.tuple_count())};
  const std::vector<BatchEstimateRequest> requests{{"t.x", query}};
  BatchEstimateResult dropped;
  const Status first = manager.EstimateBatch(table, requests, &dropped);
  EXPECT_EQ(builds, 1);
  EXPECT_FALSE(manager.Has("t.x"));
  // Nothing cached: the next call builds (and drops) again.
  const Result<double> second = manager.EstimateRange("t.x", table, query);
  EXPECT_EQ(builds, 2);
  MidBuildHook() = nullptr;
  ASSERT_TRUE(first.ok()) << first.ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // The same build (generation 0, same seed) published normally.
  const Result<double> built = manager.EstimateRange("t.x", table, query);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(dropped.estimates.size(), 1u);
  EXPECT_EQ(dropped.estimates[0], *built);
  EXPECT_EQ(*second, *built);
  EXPECT_TRUE(manager.Has("t.x"));
}

// EstimateBatch pins each column's snapshot at the column's first request
// and answers all of its requests from that pin. Here the first-access
// build of the second column drops the first column mid-batch: the third
// request must still be answered from the snapshot pinned at the first,
// not by a rebuild.
TEST(StatisticsManagerTest, BatchPinsEachColumnOnceWhenADropLandsMidBatch) {
  RegisterMidBuildHookBackendOnce();
  Table table = SkewedTable();
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.threads = 1;
  options.column_backends["hook"] = kMidBuildHookId;
  StatisticsManager manager(options);
  ASSERT_TRUE(manager.GetOrBuildShared("a", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 1u);
  MidBuildHook() = [&manager] { manager.Drop("a"); };
  const RangeQuery query{0, static_cast<Value>(table.tuple_count() / 100)};
  const std::vector<BatchEstimateRequest> requests{
      {"a", query}, {"hook", query}, {"a", query}};
  BatchEstimateResult result;
  const Status status = manager.EstimateBatch(table, requests, &result);
  MidBuildHook() = nullptr;
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(result.estimates.size(), requests.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.estimates[0]),
            std::bit_cast<std::uint64_t>(result.estimates[2]));
  EXPECT_FALSE(manager.Has("a"));
  // One build of `a` before the batch, one of `hook` inside it; a batch
  // that resolved every request afresh would rebuild `a` at the third.
  EXPECT_EQ(manager.rebuild_count(), 2u);
}

}  // namespace
}  // namespace equihist
