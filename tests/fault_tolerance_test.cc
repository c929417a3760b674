// End-to-end fault-tolerance tests (DESIGN.md §11): the fault matrix
// {transient, lost, corrupt, latency} x {CVB build, BuildAll fan-out,
// EnsureFresh rebuild, deserialize-then-serve}, the CVB fault budget and
// exhaustion errors, degraded serving (stale-while-error, uniform
// fallback, circuit breaker, quarantine), and a randomized chaos run
// driven by EQUIHIST_CHAOS_SEED. Everything runs with pinned seeds; the
// chaos test prints its seed so any failure is reproducible.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/cvb.h"
#include "data/distribution.h"
#include "stats/column_statistics.h"
#include "stats/histogram_backends.h"
#include "stats/serialization.h"
#include "stats/statistics_manager.h"
#include "storage/fault_injection.h"
#include "storage/table.h"

namespace equihist {
namespace {

// 16 tuples per page: enough pages that probabilistic fault specs hit a
// healthy share of any sampled batch.
constexpr PageConfig kPage{1024, 64};

Table MakeTable(std::uint64_t n = 60000, std::uint64_t seed = 5,
                LayoutKind layout = LayoutKind::kRandom) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 30, .skew = 1.2, .seed = seed});
  return Table::Create(*freq, kPage, {.kind = layout, .seed = seed}).value();
}

// -- Fault matrix -------------------------------------------------------------

enum class FaultFlavor { kTransient, kLost, kCorrupt, kLatency };
enum class FaultScenario {
  kCvbBuild,
  kBuildAllFanOut,
  kEnsureFreshRebuild,
  kDeserializeThenServe,
};

const char* FlavorName(FaultFlavor flavor) {
  switch (flavor) {
    case FaultFlavor::kTransient: return "Transient";
    case FaultFlavor::kLost: return "Lost";
    case FaultFlavor::kCorrupt: return "Corrupt";
    case FaultFlavor::kLatency: return "Latency";
  }
  return "?";
}

const char* ScenarioName(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kCvbBuild: return "CvbBuild";
    case FaultScenario::kBuildAllFanOut: return "BuildAllFanOut";
    case FaultScenario::kEnsureFreshRebuild: return "EnsureFreshRebuild";
    case FaultScenario::kDeserializeThenServe: return "DeserializeThenServe";
  }
  return "?";
}

FaultSpec MatrixSpec(FaultFlavor flavor, std::uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  switch (flavor) {
    case FaultFlavor::kTransient:
      spec.transient_probability = 0.25;
      spec.transient_failures_per_page = 1;
      break;
    case FaultFlavor::kLost:
      // Low enough that a full CVB run (~1200 blocks at these options)
      // stays inside the default 64-block fault budget.
      spec.lost_probability = 0.03;
      break;
    case FaultFlavor::kCorrupt:
      spec.corrupt_probability = 0.03;
      break;
    case FaultFlavor::kLatency:
      spec.latency_probability = 0.5;
      spec.latency_micros = 1;
      break;
  }
  return spec;
}

class FaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<FaultFlavor, FaultScenario>> {
};

TEST_P(FaultMatrixTest, BuildsAndServesThroughInjectedFaults) {
  const auto [flavor, scenario] = GetParam();
  Table table = MakeTable();
  FaultInjector injector(MatrixSpec(flavor, /*seed=*/41));

  switch (scenario) {
    case FaultScenario::kCvbBuild: {
      // Reference run on healthy storage, then the same pinned-seed run
      // with faults injected.
      CvbOptions options;
      options.k = 40;
      options.f = 0.15;
      options.seed = 11;
      options.threads = 1;
      // A faulty run reads a few thousand blocks (skips are replaced with
      // fresh draws); give the budget the same headroom a deployment
      // tolerating ~3% bad media would.
      options.max_skipped_blocks = 256;
      const auto clean = RunCvb(table, options);
      ASSERT_TRUE(clean.ok());
      table.set_fault_injector(&injector);
      const auto faulty = RunCvb(table, options);
      ASSERT_TRUE(faulty.ok()) << faulty.status();
      EXPECT_EQ(faulty->histogram.bucket_count(), 40u);
      EXPECT_GT(faulty->tuples_sampled, 0u);
      EXPECT_EQ(faulty->blocks_skipped, faulty->io.pages_skipped);
      switch (flavor) {
        case FaultFlavor::kTransient:
          // Every fault was retried away: no page was replaced, so the
          // sample — and the histogram — is identical to the clean run.
          EXPECT_GT(faulty->io.transient_retries, 0u);
          EXPECT_EQ(faulty->io.pages_skipped, 0u);
          EXPECT_EQ(faulty->histogram.separators(),
                    clean->histogram.separators());
          break;
        case FaultFlavor::kLost:
          EXPECT_GT(faulty->io.pages_skipped, 0u);
          break;
        case FaultFlavor::kCorrupt:
          EXPECT_GT(faulty->io.pages_corrupt, 0u);
          EXPECT_GE(faulty->io.pages_skipped, faulty->io.pages_corrupt);
          break;
        case FaultFlavor::kLatency:
          EXPECT_GT(injector.latency_injected(), 0u);
          EXPECT_EQ(faulty->io.pages_skipped, 0u);
          EXPECT_EQ(faulty->histogram.separators(),
                    clean->histogram.separators());
          break;
      }
      break;
    }

    case FaultScenario::kBuildAllFanOut: {
      table.set_fault_injector(&injector);
      StatisticsManager manager(
          {.buckets = 30, .f = 0.2, .seed = 9, .threads = 2});
      const std::vector<std::string> columns = {"a", "b", "c"};
      const auto result = manager.BuildAll(columns, table);
      EXPECT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result.succeeded, columns.size());
      for (const auto& column : columns) {
        EXPECT_EQ(manager.Health(column).health, ColumnHealth::kFresh);
      }
      if (flavor == FaultFlavor::kLost) {
        EXPECT_GT(manager.total_build_cost().pages_skipped, 0u);
      }
      if (flavor == FaultFlavor::kTransient) {
        EXPECT_GT(manager.total_build_cost().transient_retries, 0u);
      }
      break;
    }

    case FaultScenario::kEnsureFreshRebuild: {
      StatisticsManager manager(
          {.buckets = 30, .f = 0.2, .seed = 9, .threads = 1});
      ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
      manager.RecordModifications("t.x", table.tuple_count());
      ASSERT_TRUE(manager.IsStale("t.x"));
      table.set_fault_injector(&injector);
      const auto fresh = manager.EnsureFresh("t.x", table);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ(manager.rebuild_count(), 2u);
      EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);
      EXPECT_FALSE(manager.IsStale("t.x"));
      break;
    }

    case FaultScenario::kDeserializeThenServe: {
      // Statistics restored from a catalog blob serve without ever
      // touching the (faulty) storage: estimation is immune to the disk.
      CvbOptions cvb;
      cvb.k = 30;
      cvb.f = 0.2;
      cvb.seed = 7;
      cvb.threads = 1;
      const auto built = BuildStatisticsSampled(table, cvb);
      ASSERT_TRUE(built.ok());
      std::vector<std::uint8_t> blob;
      SerializeColumnStatistics(*built, &blob);
      table.set_fault_injector(&injector);
      StatisticsManager manager({.buckets = 30, .f = 0.2, .threads = 1});
      ASSERT_TRUE(manager.InstallSerializedStatistics("t.x", blob).ok());
      EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);
      const auto estimate = manager.EstimateRange(
          "t.x", table, {.lo = 0, .hi = static_cast<Value>(table.tuple_count())});
      ASSERT_TRUE(estimate.ok());
      EXPECT_GT(*estimate, 0.0);
      // Serving never issued a page read, so no fault ever fired.
      EXPECT_EQ(injector.transient_injected(), 0u);
      EXPECT_EQ(injector.lost_injected(), 0u);
      EXPECT_EQ(injector.corrupt_injected(), 0u);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllPaths, FaultMatrixTest,
    ::testing::Combine(::testing::Values(FaultFlavor::kTransient,
                                         FaultFlavor::kLost,
                                         FaultFlavor::kCorrupt,
                                         FaultFlavor::kLatency),
                       ::testing::Values(FaultScenario::kCvbBuild,
                                         FaultScenario::kBuildAllFanOut,
                                         FaultScenario::kEnsureFreshRebuild,
                                         FaultScenario::kDeserializeThenServe)),
    [](const ::testing::TestParamInfo<FaultMatrixTest::ParamType>& info) {
      return std::string(FlavorName(std::get<0>(info.param))) + "x" +
             ScenarioName(std::get<1>(info.param));
    });

// -- CVB typed errors ---------------------------------------------------------

TEST(CvbFaultTest, ExhaustionWithSkipsIsResourceExhausted) {
  // A sorted layout is maximally correlated, so with a tiny f the
  // validation cannot pass before the table is exhausted — and one page is
  // permanently lost, so the "exact histogram" fallback is off the table.
  Table table = MakeTable(4000, /*seed=*/3, LayoutKind::kSorted);
  FaultSpec spec;
  spec.lost_pages = {5};
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  CvbOptions options;
  options.k = 20;
  options.f = 0.01;
  options.seed = 3;
  options.threads = 1;
  const auto result = RunCvb(table, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The message carries the blocks-read / blocks-skipped accounting.
  EXPECT_NE(result.status().message().find("read"), std::string::npos);
  EXPECT_NE(result.status().message().find("skipped 1 unreadable"),
            std::string::npos)
      << result.status();
}

TEST(CvbFaultTest, CleanExhaustionWithoutFallbackIsResourceExhausted) {
  Table table = MakeTable(4000, /*seed=*/3, LayoutKind::kSorted);
  CvbOptions options;
  options.k = 20;
  options.f = 0.01;
  options.seed = 3;
  options.threads = 1;
  options.allow_exhaustive_fallback = false;
  const auto result = RunCvb(table, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("skipped 0 unreadable"),
            std::string::npos)
      << result.status();
  // The default keeps the historical behavior: exhaustion on healthy
  // storage returns the exact histogram.
  options.allow_exhaustive_fallback = true;
  const auto exact = RunCvb(table, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->exhausted_table);
  EXPECT_EQ(exact->blocks_skipped, 0u);
}

TEST(CvbFaultTest, FaultBudgetExhaustionIsDataLoss) {
  Table table = MakeTable(20000);
  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  CvbOptions options;
  options.k = 20;
  options.f = 0.2;
  options.seed = 3;
  options.threads = 1;
  options.max_skipped_blocks = 4;
  const auto result = RunCvb(table, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("fault budget exhausted"),
            std::string::npos)
      << result.status();
}

// -- BuildAll aggregation -----------------------------------------------------

TEST(BuildAllTest, PartialFailureIsAggregatedPerColumn) {
  Table table = MakeTable(30000);
  StatisticsManager::Options options;
  options.buckets = 30;
  options.f = 0.2;
  options.threads = 1;
  // An unregistered backend id: this column's build fails with a non-fault
  // error that degraded serving must NOT absorb.
  options.column_backends["t.bad"] = static_cast<HistogramBackendId>(250);
  StatisticsManager manager(options);
  const auto result =
      manager.BuildAll({"t.good", "t.bad", "t.also_good"}, table);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.attempted, 3u);
  EXPECT_EQ(result.succeeded, 2u);
  ASSERT_EQ(result.failed.size(), 1u);
  EXPECT_EQ(result.failed[0].first, "t.bad");
  EXPECT_EQ(result.failed[0].second.code(), StatusCode::kNotFound);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The sweep never gave up early: the healthy columns are fresh.
  EXPECT_TRUE(manager.Has("t.good"));
  EXPECT_TRUE(manager.Has("t.also_good"));
  EXPECT_FALSE(manager.Has("t.bad"));
  const auto health = manager.Health("t.bad");
  EXPECT_TRUE(health.exists);
  EXPECT_EQ(health.health, ColumnHealth::kDegraded);
}

TEST(BuildAllTest, AbsorbedFaultFailuresStillShowInTheAggregation) {
  // All storage lost and the column has never built: degraded serving
  // publishes the fallback (BuildAll's result is still usable for
  // estimation), but the sweep must report the underlying fault.
  Table table = MakeTable(20000);
  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  StatisticsManager manager({.buckets = 20, .f = 0.2, .threads = 1});
  const auto result = manager.BuildAll({"t.x"}, table);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.failed.size(), 1u);
  EXPECT_EQ(result.failed[0].second.code(), StatusCode::kDataLoss);
  const auto health = manager.Health("t.x");
  EXPECT_TRUE(health.serving_fallback);
  EXPECT_EQ(health.health, ColumnHealth::kDegraded);
}

// -- Degraded serving ---------------------------------------------------------

TEST(DegradedServingTest, StaleWhileErrorKeepsServingPreviousSnapshot) {
  Table table = MakeTable(30000);
  StatisticsManager manager({.buckets = 30, .f = 0.2, .threads = 1});
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  const RangeQuery query{.lo = 0, .hi = 1000};
  const auto before = manager.EstimateRange("t.x", table, query);
  ASSERT_TRUE(before.ok());
  manager.RecordModifications("t.x", table.tuple_count());
  ASSERT_TRUE(manager.IsStale("t.x"));

  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  // The rebuild fails on dead storage, but EnsureFresh still returns the
  // previous snapshot — stale-while-error.
  const auto stale = manager.EnsureFresh("t.x", table);
  ASSERT_TRUE(stale.ok());
  const auto health = manager.Health("t.x");
  EXPECT_EQ(health.health, ColumnHealth::kStale);
  EXPECT_EQ(health.consecutive_build_failures, 1u);
  EXPECT_EQ(health.last_error.code(), StatusCode::kDataLoss);
  // The lock-free serving path is untouched by the failed rebuild.
  const auto after = manager.EstimateRange("t.x", table, query);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(*after, *before);
  // The staleness persists, so the next EnsureFresh tries again — and
  // succeeds once storage heals, clearing the failure state.
  EXPECT_TRUE(manager.IsStale("t.x"));
  table.set_fault_injector(nullptr);
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);
  EXPECT_FALSE(manager.IsStale("t.x"));
}

TEST(DegradedServingTest, UnbuiltColumnFallsBackToUniformModel) {
  Table table = MakeTable(24000);
  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  StatisticsManager manager({.buckets = 20, .f = 0.2, .threads = 1});
  const auto stats = manager.GetOrBuildShared("t.x", table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)->row_count, table.tuple_count());
  const auto health = manager.Health("t.x");
  EXPECT_EQ(health.health, ColumnHealth::kDegraded);
  EXPECT_TRUE(health.serving_fallback);
  EXPECT_EQ(health.last_error.code(), StatusCode::kDataLoss);
  // Unknown domain: any non-degenerate range gets the System-R magic
  // selectivity of 1/3.
  const auto estimate =
      manager.EstimateRange("t.x", table, {.lo = 10, .hi = 20});
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate,
                   static_cast<double>(table.tuple_count()) / 3.0);
  const auto empty = manager.EstimateRange("t.x", table, {.lo = 20, .hi = 10});
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(*empty, 0.0);
  // Storage heals: the next access replaces the fallback with a real build.
  table.set_fault_injector(nullptr);
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);
  EXPECT_FALSE(manager.Health("t.x").serving_fallback);
}

TEST(DegradedServingTest, NonFaultErrorsAreNeverAbsorbed) {
  // Invalid build options fail with InvalidArgument — a caller bug, not a
  // storage fault. No fallback, no breaker, the error propagates.
  Table table = MakeTable(8000);
  StatisticsManager manager({.buckets = 0, .f = 0.2, .threads = 1});
  const auto result = manager.GetOrBuildShared("t.x", table);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const auto health = manager.Health("t.x");
  EXPECT_FALSE(health.serving_fallback);
  EXPECT_EQ(health.consecutive_build_failures, 0u);
}

TEST(DegradedServingTest, TransientOutageHealsAcrossRebuildAttempts) {
  // Every page fails 6 attempts before healing; each build retries each
  // page twice. Builds 1-3 exhaust the fault budget, the 4th finds fully
  // healed storage — deterministic recovery, no wall clock involved.
  Table table = MakeTable(2400);
  FaultSpec spec;
  spec.transient_probability = 1.0;
  spec.transient_failures_per_page = 6;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.threads = 1;
  options.retry.max_attempts = 2;
  options.breaker_failure_threshold = 100;  // let every attempt through
  StatisticsManager manager(options);
  int failed_builds = 0;
  for (; failed_builds < 10; ++failed_builds) {
    ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
    if (!manager.Health("t.x").serving_fallback) break;
  }
  EXPECT_EQ(failed_builds, 3);
  EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);
  EXPECT_EQ(manager.Health("t.x").consecutive_build_failures, 0u);
}

// -- Backend builds under faults ----------------------------------------------

// Every sampled build is one CVB run, so under lost pages every backend
// reads and skips exactly the pages the equi-height build does.
TEST(BackendFaultTest, EverySampledBackendReadsAndSkipsWhatCvbDoes) {
  const auto freq = MakeZipf(
      {.n = 200000, .domain_size = 10000, .skew = 1.2, .seed = 5});
  Table table = Table::Create(*freq, PageConfig{8192, 64},
                              {.kind = LayoutKind::kRandom, .seed = 5})
                    .value();
  ASSERT_EQ(table.page_count(), 1563u);
  FaultSpec spec;
  spec.lost_probability = 0.01;
  spec.seed = 17;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);

  BackendBuildOptions options;
  options.f = 0.2;
  options.seed = 3;
  const auto reference = BuildStatisticsWithBackend(table, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GT(reference->build_cost.pages_skipped, 0u);
  for (const HistogramBackendId id :
       {HistogramBackendId::kEquiWidth, HistogramBackendId::kCompressed,
        HistogramBackendId::kIncrementalEquiDepth}) {
    SCOPED_TRACE(static_cast<int>(id));
    options.backend = id;
    const auto built = BuildStatisticsWithBackend(table, options);
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_EQ(built->build_cost.pages_read, reference->build_cost.pages_read);
    EXPECT_EQ(built->build_cost.pages_skipped,
              reference->build_cost.pages_skipped);
    EXPECT_EQ(built->build_cost.tuples_read,
              reference->build_cost.tuples_read);
    EXPECT_EQ(built->sample_size, reference->sample_size);
  }
}

// A full-scan build retries transient faults per the build's own retry
// policy.
TEST(BackendFaultTest, FullScanBuildsHonourTheRetryPolicy) {
  Table table = MakeTable(20000);
  FaultSpec spec;
  spec.transient_pages = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  RetryPolicy retry;

  // Three failed reads per page: five attempts clear every one.
  spec.transient_failures_per_page = 3;
  retry.max_attempts = 5;
  {
    FaultInjector injector(spec);
    table.set_fault_injector(&injector);
    const auto built = BuildStatisticsFullScan(table, 20, nullptr, retry);
    table.set_fault_injector(nullptr);
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_EQ(built->build_cost.transient_retries, 30u);
    EXPECT_EQ(built->row_count, table.tuple_count());
  }

  // One failed read per page and no retry: the scan fails.
  spec.transient_failures_per_page = 1;
  retry.max_attempts = 1;
  {
    FaultInjector injector(spec);
    table.set_fault_injector(&injector);
    const auto built = BuildStatisticsFullScan(table, 20, nullptr, retry);
    table.set_fault_injector(nullptr);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kUnavailable);
  }
}

// Ids 3 and 4 decode only: a build of either, directly or through a shard
// column mapped to it, fails with InvalidArgument before it reads a page.
// Every page is lost, so any read would show in the injector's count; the
// error is not a storage fault, so the shard publishes no fallback and its
// breaker stays closed.
TEST(BackendFaultTest, DecodeOnlyBackendFailsBeforeReadingAPage) {
  Table table = MakeTable(20000);
  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  for (const HistogramBackendId id : {HistogramBackendId::kGmpIncremental,
                                      HistogramBackendId::kFallbackUniform}) {
    SCOPED_TRACE(static_cast<int>(id));
    BackendBuildOptions options;
    options.backend = id;
    const auto built = BuildStatisticsWithBackend(table, options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);

    StatisticsManager::Options manager_options;
    manager_options.threads = 1;
    manager_options.column_backends["t.decode_only"] = id;
    StatisticsManager manager(manager_options);
    const auto served = manager.GetOrBuildShared("t.decode_only", table);
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
    const ColumnHealthReport health = manager.Health("t.decode_only");
    EXPECT_FALSE(health.serving_fallback);
    EXPECT_EQ(health.consecutive_build_failures, 0u);
    EXPECT_FALSE(health.breaker_open);
    EXPECT_EQ(manager.total_build_cost().pages_read, 0u);
  }
  EXPECT_EQ(injector.lost_injected(), 0u);
  table.set_fault_injector(nullptr);
}

// -- Incremental maintenance under faults (DESIGN.md §15) ---------------------

StatisticsManager::Options IncrementalFaultOptions() {
  StatisticsManager::Options options;
  options.buckets = 30;
  options.f = 0.2;
  options.threads = 1;
  options.default_backend = HistogramBackendId::kIncrementalEquiDepth;
  options.staleness_threshold = 1e-12;  // any DML forces a refresh
  return options;
}

TEST(IncrementalFaultTest, RefreshSucceedsOnDeadStorage) {
  // An O(Δ) refresh publishes from the live reservoir-backed state and
  // reads zero storage pages — so it works, and keeps the column fresh,
  // while the table is completely unreadable.
  Table table = MakeTable(30000);
  StatisticsManager manager(IncrementalFaultOptions());
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());

  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  for (Value v = 1; v <= 200; ++v) manager.RecordInsert("t.x", v);
  ASSERT_TRUE(manager.IsStale("t.x"));
  const auto fresh = manager.EnsureFresh("t.x", table);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(manager.incremental_refresh_count(), 1u);
  EXPECT_EQ(manager.rebuild_count(), 1u);
  EXPECT_EQ((*fresh)->row_count, table.tuple_count() + 200);
  const auto health = manager.Health("t.x");
  EXPECT_EQ(health.health, ColumnHealth::kFresh);
  EXPECT_EQ(health.consecutive_build_failures, 0u);
  EXPECT_FALSE(manager.IsStale("t.x"));
}

TEST(IncrementalFaultTest, BudgetFallbackOnDeadStorageIsStaleWhileError) {
  // Count-only modifications disqualify the incremental path (the values
  // never reached the reservoir), so EnsureFresh must attempt a full
  // rebuild. On dead storage that fails — and the column degrades to
  // stale-while-error serving the *previous complete snapshot*, never a
  // half-repaired one: estimates are bit-identical to before the outage,
  // and no incremental refresh is counted.
  Table table = MakeTable(30000);
  StatisticsManager manager(IncrementalFaultOptions());
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  const RangeQuery query{.lo = 0, .hi = 900};
  const auto before = manager.EstimateRange("t.x", table, query);
  ASSERT_TRUE(before.ok());

  manager.RecordModifications("t.x", 5000);
  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  const auto stale = manager.EnsureFresh("t.x", table);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(manager.incremental_refresh_count(), 0u);
  EXPECT_EQ(manager.rebuild_count(), 1u);  // the initial build only
  const auto health = manager.Health("t.x");
  EXPECT_EQ(health.health, ColumnHealth::kStale);
  EXPECT_EQ(health.last_error.code(), StatusCode::kDataLoss);
  const auto during = manager.EstimateRange("t.x", table, query);
  ASSERT_TRUE(during.ok());
  EXPECT_DOUBLE_EQ(*during, *before);

  // Storage heals: the rebuild goes through, reseeds the reservoir, and
  // value-carrying DML afterwards refreshes incrementally again.
  table.set_fault_injector(nullptr);
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);
  manager.RecordInsert("t.x", 11);
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.incremental_refresh_count(), 1u);
  EXPECT_EQ(manager.rebuild_count(), 2u);
}

TEST(CircuitBreakerTest, OpensAfterThresholdAndRecoversAfterCooldown) {
  Table table = MakeTable(8000);
  auto now = std::make_shared<std::uint64_t>(0);
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.threads = 1;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_micros = 1'000;
  options.clock = [now]() { return *now; };
  StatisticsManager manager(options);
  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);

  // Failure 1: below the threshold, fallback published, breaker closed.
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  auto health = manager.Health("t.x");
  EXPECT_EQ(health.consecutive_build_failures, 1u);
  EXPECT_FALSE(health.breaker_open);
  // Failure 2: threshold reached, breaker opens.
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  health = manager.Health("t.x");
  EXPECT_EQ(health.consecutive_build_failures, 2u);
  EXPECT_TRUE(health.breaker_open);
  // While open, no build is even attempted: the injector sees no reads.
  const std::uint64_t lost_before = injector.lost_injected();
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_EQ(injector.lost_injected(), lost_before);
  // Past the cooldown one attempt is let through (half-open); storage is
  // still dead, so it fails and the breaker re-opens with a new deadline.
  *now = 1'500;
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  health = manager.Health("t.x");
  EXPECT_EQ(health.consecutive_build_failures, 3u);
  EXPECT_TRUE(health.breaker_open);
  EXPECT_GT(injector.lost_injected(), lost_before);
  // Cooldown elapses again and storage has healed: the half-open attempt
  // succeeds, closing the breaker and replacing the fallback.
  *now = 3'000;
  table.set_fault_injector(nullptr);
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  health = manager.Health("t.x");
  EXPECT_EQ(health.health, ColumnHealth::kFresh);
  EXPECT_FALSE(health.breaker_open);
  EXPECT_EQ(health.consecutive_build_failures, 0u);
  EXPECT_FALSE(health.serving_fallback);
  EXPECT_GT(health.total_build_failures, 0u);  // history is preserved
}

TEST(QuarantineTest, BadBlobQuarantinesAndOldSnapshotKeepsServing) {
  Table table = MakeTable(20000);
  StatisticsManager manager({.buckets = 20, .f = 0.2, .threads = 1});
  const auto built = manager.GetOrBuildShared("t.x", table);
  ASSERT_TRUE(built.ok());
  const RangeQuery query{.lo = 0, .hi = 500};
  const auto before = manager.EstimateRange("t.x", table, query);
  ASSERT_TRUE(before.ok());

  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3};
  const Status install = manager.InstallSerializedStatistics("t.x", garbage);
  EXPECT_FALSE(install.ok());
  auto health = manager.Health("t.x");
  EXPECT_TRUE(health.quarantined);
  EXPECT_EQ(health.health, ColumnHealth::kDegraded);
  EXPECT_FALSE(health.last_error.ok());
  // The previous snapshot keeps serving, bit-identically.
  const auto after = manager.EstimateRange("t.x", table, query);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(*after, *before);

  // A valid blob clears the quarantine.
  std::vector<std::uint8_t> blob;
  SerializeColumnStatistics(**built, &blob);
  ASSERT_TRUE(manager.InstallSerializedStatistics("t.x", blob).ok());
  health = manager.Health("t.x");
  EXPECT_FALSE(health.quarantined);
  EXPECT_EQ(health.health, ColumnHealth::kFresh);
}

TEST(QuarantineTest, LiveBuildClearsQuarantine) {
  Table table = MakeTable(20000);
  StatisticsManager manager({.buckets = 20, .f = 0.2, .threads = 1});
  const std::vector<std::uint8_t> garbage = {9, 9, 9, 9};
  EXPECT_FALSE(manager.InstallSerializedStatistics("t.x", garbage).ok());
  EXPECT_TRUE(manager.Health("t.x").quarantined);
  // A never-built quarantined column builds through the normal path.
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());
  EXPECT_FALSE(manager.Health("t.x").quarantined);
  EXPECT_EQ(manager.Health("t.x").health, ColumnHealth::kFresh);
}

TEST(HealthTest, UnknownColumnReportsDegradedNonexistent) {
  StatisticsManager manager({.buckets = 20});
  const auto health = manager.Health("nope");
  EXPECT_FALSE(health.exists);
  EXPECT_EQ(health.health, ColumnHealth::kDegraded);
}

// -- Fallback model semantics -------------------------------------------------

TEST(FallbackUniformModelTest, KnownDomainInterpolatesUniformly) {
  FallbackUniformModel model(1000, 0, 100);  // uniform over (0, 100]
  EXPECT_TRUE(model.domain_known());
  EXPECT_DOUBLE_EQ(model.EstimateRangeCount({.lo = 0, .hi = 50}), 500.0);
  EXPECT_DOUBLE_EQ(model.EstimateRangeCount({.lo = 25, .hi = 75}), 500.0);
  // Out-of-domain ends clip to the fences.
  EXPECT_DOUBLE_EQ(model.EstimateRangeCount({.lo = -100, .hi = 200}), 1000.0);
  EXPECT_DOUBLE_EQ(model.EstimateRangeCount({.lo = 200, .hi = 300}), 0.0);
  EXPECT_DOUBLE_EQ(model.EstimateRangeCount({.lo = 50, .hi = 50}), 0.0);
}

TEST(FallbackUniformModelTest, UnknownDomainUsesMagicSelectivity) {
  FallbackUniformModel model(900, 0, 0);
  EXPECT_FALSE(model.domain_known());
  EXPECT_DOUBLE_EQ(model.EstimateRangeCount({.lo = 1, .hi = 2}),
                   900.0 * FallbackUniformModel::kMagicRangeSelectivity);
  EXPECT_DOUBLE_EQ(model.EstimateRangeCount({.lo = 2, .hi = 1}), 0.0);
  EXPECT_NE(model.Describe().find("unknown"), std::string::npos);
}

TEST(FallbackUniformModelTest, RoundTripsThroughTheContainer) {
  const FallbackUniformModel model(12345, -50, 700);
  std::vector<std::uint8_t> bytes;
  SerializeHistogramModel(model, &bytes);
  const auto restored = DeserializeHistogramModel(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->backend_id(), HistogramBackendId::kFallbackUniform);
  EXPECT_EQ((*restored)->total(), 12345u);
  EXPECT_DOUBLE_EQ((*restored)->EstimateRangeCount({.lo = -50, .hi = 325}),
                   model.EstimateRangeCount({.lo = -50, .hi = 325}));
}

// -- Chaos runs ---------------------------------------------------------------

TEST(ChaosTest, PinnedSeedMixedFaultBuildStaysUniform) {
  // All four fault kinds at once with a pinned seed: the build must
  // either survive (skips within budget, counters consistent) and produce
  // a histogram covering the whole table, or fail with a typed fault.
  Table table = MakeTable(60000, /*seed=*/12);
  FaultSpec spec;
  spec.transient_probability = 0.1;
  spec.lost_probability = 0.04;
  spec.corrupt_probability = 0.04;
  spec.latency_probability = 0.1;
  spec.latency_micros = 1;
  spec.seed = 20260806;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  CvbOptions options;
  options.k = 40;
  options.f = 0.15;
  options.seed = 13;
  options.threads = 1;
  // 8% of pages are unreadable and a full run reads over a thousand
  // blocks; budget accordingly.
  options.max_skipped_blocks = 256;
  const auto result = RunCvb(table, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->io.transient_retries, 0u);
  EXPECT_GT(result->io.pages_skipped, 0u);
  EXPECT_GE(result->io.pages_skipped, result->io.pages_corrupt);
  EXPECT_EQ(result->blocks_skipped, result->io.pages_skipped);
  EXPECT_LE(result->blocks_skipped, options.max_skipped_blocks);
  EXPECT_EQ(result->histogram.bucket_count(), 40u);
  EXPECT_EQ(result->histogram.total(), table.tuple_count());
}

TEST(ChaosTest, RandomizedSeedChaosSweepPrintsItsSeed) {
  // CI drives this with a randomized EQUIHIST_CHAOS_SEED; the seed is
  // always printed so any failure can be replayed exactly.
  std::uint64_t seed = 0x5EED2026;
  if (const char* env = std::getenv("EQUIHIST_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::cout << "[chaos] EQUIHIST_CHAOS_SEED=" << seed << std::endl;
  SCOPED_TRACE("EQUIHIST_CHAOS_SEED=" + std::to_string(seed));

  Table table = MakeTable(40000, /*seed=*/seed ^ 0x9E3779B9);
  FaultSpec spec;
  spec.transient_probability = 0.15;
  spec.lost_probability = 0.05;
  spec.corrupt_probability = 0.05;
  spec.latency_probability = 0.05;
  spec.latency_micros = 1;
  spec.seed = seed;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);

  StatisticsManager manager(
      {.buckets = 30, .f = 0.2, .seed = seed, .threads = 2});
  const std::vector<std::string> columns = {"c0", "c1", "c2"};
  const auto sweep = manager.BuildAll(columns, table);
  EXPECT_EQ(sweep.attempted, columns.size());
  // Whatever storage did, every failure must be a typed fault error —
  // never a crash, never a silent wrong answer.
  for (const auto& [column, status] : sweep.failed) {
    EXPECT_TRUE(status.code() == StatusCode::kUnavailable ||
                status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kResourceExhausted)
        << column << ": " << status;
  }
  // Every column stays servable: a real snapshot or the uniform fallback.
  const double n = static_cast<double>(table.tuple_count());
  for (const auto& column : columns) {
    const auto estimate = manager.EstimateRange(
        column, table, {.lo = 0, .hi = static_cast<Value>(table.tuple_count())});
    ASSERT_TRUE(estimate.ok()) << column;
    EXPECT_GE(*estimate, 0.0);
    EXPECT_LE(*estimate, 1.5 * n);
    const auto health = manager.Health(column);
    EXPECT_TRUE(health.exists);
  }
}

}  // namespace
}  // namespace equihist
