// Concurrency tests for StatisticsManager: many threads hammering
// GetOrBuildShared/RecordModifications/EnsureFresh/IsStale at once, plus the
// BuildAll fan-out. Run under -fsanitize=thread in CI (the ci.yml tsan
// job) to prove the locking discipline.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "stats/statistics_manager.h"
#include "storage/fault_injection.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};

Table SmallTable(std::uint64_t n = 60000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.2, .seed = seed});
  return Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom, .seed = seed})
      .value();
}

TEST(StatsConcurrencyTest, ConcurrentGetOrBuildBuildsOncePerColumn) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 40, .f = 0.25, .threads = 2});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, &table, &failures]() {
      for (int i = 0; i < 5; ++i) {
        const auto stats = manager.GetOrBuildShared("t.x", table);
        if (!stats.ok() || (*stats)->row_count != table.tuple_count()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // All 40 concurrent lookups collapsed to a single build.
  EXPECT_EQ(manager.rebuild_count(), 1u);
  EXPECT_EQ(manager.size(), 1u);
}

TEST(StatsConcurrencyTest, MixedReadersWritersAndRebuilds) {
  Table table = SmallTable();
  StatisticsManager manager(
      {.buckets = 40, .f = 0.25, .staleness_threshold = 0.2, .threads = 2});
  const std::vector<std::string> columns = {"a", "b", "c"};
  for (const auto& c : columns) {
    ASSERT_TRUE(manager.GetOrBuildShared(c, table).ok());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Readers: hold snapshots and use them while rebuilds happen underneath.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 30; ++i) {
        const auto stats =
            manager.GetOrBuildShared(columns[(t + i) % columns.size()], table);
        if (!stats.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Touch the snapshot: safe even if the entry is rebuilt right now.
        if ((*stats)->histogram().bucket_count() == 0) failures.fetch_add(1);
        (void)manager.IsStale(columns[i % columns.size()]);
      }
    });
  }
  // Writers: report DML, forcing staleness.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 30; ++i) {
        manager.RecordModifications(columns[i % columns.size()],
                                    table.tuple_count() / 8);
      }
    });
  }
  // Refreshers: rebuild whatever went stale.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 15; ++i) {
        const auto stats =
            manager.EnsureFresh(columns[(t + i) % columns.size()], table);
        if (!stats.ok() || (*stats)->row_count != table.tuple_count()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager.size(), columns.size());
  EXPECT_GE(manager.rebuild_count(), columns.size());
  EXPECT_GT(manager.total_build_cost().pages_read, 0u);
}

TEST(StatsConcurrencyTest, ConcurrentDropAndBuild) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 30, .f = 0.3, .threads = 2});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 10; ++i) {
        const auto stats = manager.GetOrBuildShared("col", table);
        if (stats.ok() && (*stats)->row_count != table.tuple_count()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&]() {
    for (int i = 0; i < 10; ++i) manager.Drop("col");
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StatsConcurrencyTest, BuildAllBuildsEveryColumn) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 40, .f = 0.25, .threads = 4});
  const std::vector<std::string> columns = {"c0", "c1", "c2", "c3", "c4"};
  ASSERT_TRUE(manager.BuildAll(columns, table).ok());
  EXPECT_EQ(manager.size(), columns.size());
  EXPECT_EQ(manager.rebuild_count(), columns.size());
  for (const auto& c : columns) EXPECT_TRUE(manager.Has(c));
  // Already fresh: a second sweep is a no-op.
  ASSERT_TRUE(manager.BuildAll(columns, table).ok());
  EXPECT_EQ(manager.rebuild_count(), columns.size());
}

TEST(StatsConcurrencyTest, BuildAllMatchesSerialBuilds) {
  // Per-column seed streams make the fan-out order irrelevant: a BuildAll
  // sweep produces the same statistics as serial first accesses.
  Table table = SmallTable();
  const std::vector<std::string> columns = {"x", "y", "z"};
  StatisticsManager parallel({.buckets = 40, .f = 0.25, .threads = 4});
  ASSERT_TRUE(parallel.BuildAll(columns, table).ok());
  StatisticsManager serial({.buckets = 40, .f = 0.25, .threads = 1});
  for (const auto& c : columns) {
    const auto from_serial = serial.GetOrBuildShared(c, table);
    const auto from_parallel = parallel.GetOrBuildShared(c, table);
    ASSERT_TRUE(from_serial.ok());
    ASSERT_TRUE(from_parallel.ok());
    EXPECT_EQ((*from_serial)->histogram().separators(),
              (*from_parallel)->histogram().separators())
        << "column " << c;
    EXPECT_EQ((*from_serial)->histogram().counts(),
              (*from_parallel)->histogram().counts());
    EXPECT_EQ((*from_serial)->sample_size, (*from_parallel)->sample_size);
  }
}

TEST(StatsConcurrencyTest, ServingPathMatchesSnapshotEstimates) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 40, .f = 0.25, .threads = 1});
  const RangeQuery query{100, 5000};
  const auto estimate = manager.EstimateRange("col", table, query);
  ASSERT_TRUE(estimate.ok());
  // The serving path must answer from exactly the published snapshot.
  const auto snapshot = manager.GetOrBuildShared("col", table);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(*estimate, (*snapshot)->EstimateRangeCount(query));
  // Repeat calls hit the thread cache and stay bitwise identical.
  for (int i = 0; i < 10; ++i) {
    const auto again = manager.EstimateRange("col", table, query);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *estimate);
  }
  EXPECT_EQ(manager.rebuild_count(), 1u);  // one build served everything
}

TEST(StatsConcurrencyTest, ServingCacheInvalidatesOnRebuildAndDrop) {
  Table table = SmallTable();
  StatisticsManager manager(
      {.buckets = 40, .f = 0.25, .staleness_threshold = 0.1, .threads = 1});
  const RangeQuery query{0, 100000};
  ASSERT_TRUE(manager.EstimateRange("col", table, query).ok());
  EXPECT_EQ(manager.rebuild_count(), 1u);

  // A rebuild publishes a new snapshot; the cached serving slot must miss
  // and re-resolve to the new statistics.
  manager.RecordModifications("col", table.tuple_count());
  ASSERT_TRUE(manager.EnsureFresh("col", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  const auto fresh = manager.GetOrBuildShared("col", table);
  ASSERT_TRUE(fresh.ok());
  const auto estimate = manager.EstimateRange("col", table, query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(*estimate, (*fresh)->EstimateRangeCount(query));

  // Dropping invalidates too: the next estimate triggers a fresh build
  // rather than serving the dropped snapshot.
  EXPECT_TRUE(manager.Drop("col"));
  ASSERT_TRUE(manager.EstimateRange("col", table, query).ok());
  EXPECT_EQ(manager.rebuild_count(), 3u);
}

TEST(StatsConcurrencyTest, ConcurrentServingDuringRebuildsAndDrops) {
  // Readers estimate through the lock-free path while writers force
  // rebuilds and drops underneath — under TSan this proves the
  // publication-counter protocol. Estimates must always come from *some*
  // complete snapshot: positive row counts, finite values, no errors.
  Table table = SmallTable();
  StatisticsManager manager(
      {.buckets = 30, .f = 0.3, .staleness_threshold = 0.05, .threads = 2});
  const std::vector<std::string> columns = {"a", "b"};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 200; ++i) {
        const std::string& column = columns[(t + i) % columns.size()];
        const auto estimate =
            manager.EstimateRange(column, table, {100, 30000 + i});
        if (!estimate.ok() || !(*estimate >= 0.0) ||
            *estimate > static_cast<double>(table.tuple_count())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&]() {
    for (int i = 0; i < 20; ++i) {
      manager.RecordModifications(columns[i % columns.size()],
                                  table.tuple_count() / 4);
      (void)manager.EnsureFresh(columns[i % columns.size()], table);
    }
  });
  threads.emplace_back([&]() {
    for (int i = 0; i < 10; ++i) manager.Drop(columns[i % columns.size()]);
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StatsConcurrencyTest, MixedBackendServingDuringRebuildsAndDrops) {
  // Same race as above, but every column is served by a different histogram
  // backend: the snapshot-cache protocol must be family-agnostic. Under
  // TSan this proves the serving path never mixes a column's old model with
  // a new snapshot while Drop/rebuild swap entries underneath.
  Table table = SmallTable();
  StatisticsManager::Options options;
  options.buckets = 24;
  options.f = 0.3;
  options.staleness_threshold = 0.05;
  options.threads = 2;
  options.column_backends["eh"] = HistogramBackendId::kEquiHeight;
  options.column_backends["ew"] = HistogramBackendId::kEquiWidth;
  options.column_backends["cp"] = HistogramBackendId::kCompressed;
  StatisticsManager manager(options);
  const std::vector<std::string> columns = {"eh", "ew", "cp"};

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 150; ++i) {
        const std::string& column = columns[(t + i) % columns.size()];
        const auto estimate =
            manager.EstimateRange(column, table, {100, 30000 + i});
        if (!estimate.ok() || !(*estimate >= 0.0) ||
            *estimate > static_cast<double>(table.tuple_count()) + 1.0) {
          failures.fetch_add(1);
          continue;
        }
        // A served snapshot must carry the column's configured family.
        const auto snapshot = manager.GetOrBuildShared(column, table);
        if (!snapshot.ok() || (*snapshot)->model == nullptr ||
            (*snapshot)->model->backend_id() !=
                options.column_backends.at(column)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&]() {
    for (int i = 0; i < 20; ++i) {
      manager.RecordModifications(columns[i % columns.size()],
                                  table.tuple_count() / 4);
      (void)manager.EnsureFresh(columns[i % columns.size()], table);
    }
  });
  threads.emplace_back([&]() {
    for (int i = 0; i < 12; ++i) manager.Drop(columns[i % columns.size()]);
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StatsConcurrencyTest, ReadersServeStaleWhileBuildsFailAndRecover) {
  // Degraded serving under contention (DESIGN.md §11): storage starts
  // failing every read a bounded number of times, so rebuild attempts keep
  // failing and are absorbed (stale-while-error) while reader threads
  // estimate through the lock-free path the whole time. Once the injected
  // outage wears off, a rebuild succeeds and readers switch to the fresh
  // snapshot. Under TSan this proves the degraded-state bookkeeping never
  // races with serving.
  Table table = SmallTable(20000);
  StatisticsManager::Options options;
  options.buckets = 24;
  options.f = 0.25;
  options.threads = 2;
  options.retry.max_attempts = 2;
  options.breaker_failure_threshold = 1'000'000;  // no cooldown stalls here
  StatisticsManager manager(options);
  ASSERT_TRUE(manager.GetOrBuildShared("t.x", table).ok());

  // Every page fails 8 read attempts before healing; rebuilds consume two
  // attempts per page, so several rebuilds fail before one succeeds. The
  // injector's per-page counters are internally synchronized.
  FaultSpec spec;
  spec.transient_probability = 1.0;
  spec.transient_failures_per_page = 8;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);

  std::atomic<int> failures{0};
  std::atomic<bool> recovered{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 300 && !recovered.load(); ++i) {
        const auto estimate =
            manager.EstimateRange("t.x", table, {100, 5000 + t * 100 + i});
        if (!estimate.ok() || !(*estimate >= 0.0) ||
            *estimate > static_cast<double>(table.tuple_count())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&]() {
    manager.RecordModifications("t.x", table.tuple_count());
    // Failed rebuilds are absorbed: EnsureFresh keeps returning the stale
    // snapshot, and the staleness persists until a rebuild succeeds.
    for (int i = 0; i < 50; ++i) {
      const auto result = manager.EnsureFresh("t.x", table);
      if (!result.ok()) {
        failures.fetch_add(1);
        break;
      }
      if (manager.Health("t.x").health == ColumnHealth::kFresh) {
        recovered.store(true);
        break;
      }
    }
    recovered.store(true);  // release the readers either way
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The outage was long enough that at least one rebuild failed and was
  // absorbed, and short enough that the column recovered.
  const auto health = manager.Health("t.x");
  EXPECT_GT(health.total_build_failures, 0u);
  EXPECT_EQ(health.health, ColumnHealth::kFresh);
  EXPECT_EQ(health.consecutive_build_failures, 0u);
  EXPECT_GE(manager.rebuild_count(), 2u);
}

TEST(StatsConcurrencyTest, EstimateBatchMultiColumnMatchesPerRequest) {
  // The multi-column batch API answers an interleaved predicate list with
  // exactly the per-request serving-path estimates, in request order.
  Table table = SmallTable();
  StatisticsManager::Options options;
  options.buckets = 40;
  options.f = 0.25;
  options.threads = 4;
  options.column_backends["ew"] = HistogramBackendId::kEquiWidth;
  StatisticsManager manager(options);
  const std::vector<std::string> columns = {"a", "b", "ew"};
  std::vector<BatchEstimateRequest> requests;
  for (int i = 0; i < 900; ++i) {
    requests.push_back({columns[i % columns.size()],
                        {i * 17 % 40000, i * 17 % 40000 + 300 + i}});
  }
  BatchEstimateResult batch;
  ASSERT_TRUE(manager.EstimateBatch(table, requests, &batch).ok());
  ASSERT_EQ(batch.estimates.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto single =
        manager.EstimateRange(requests[i].column, table, requests[i].query);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch.estimates[i], *single) << "request " << i;
  }
  // Each distinct column built exactly once — the whole batch rode the
  // snapshot cache.
  EXPECT_EQ(manager.rebuild_count(), columns.size());
  // A null result slot is rejected outright.
  EXPECT_FALSE(manager.EstimateBatch(table, requests, nullptr).ok());
  // An empty batch is a clean no-op.
  BatchEstimateResult empty;
  ASSERT_TRUE(manager.EstimateBatch(table, {}, &empty).ok());
  EXPECT_TRUE(empty.estimates.empty());
}

TEST(StatsConcurrencyTest, ConcurrentBatchServingDuringRebuildsAndDrops) {
  // The multi-column batch path under fire: reader threads push interleaved
  // batches through EstimateBatch (pinning several snapshots per call)
  // while writers force rebuilds and drops underneath. Under TSan this
  // proves the batch path's snapshot pinning obeys the same
  // publication-counter protocol as single-query serving.
  Table table = SmallTable();
  StatisticsManager manager(
      {.buckets = 30, .f = 0.3, .staleness_threshold = 0.05, .threads = 2});
  const std::vector<std::string> columns = {"a", "b"};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<BatchEstimateRequest> requests;
      for (int j = 0; j < 32; ++j) {
        requests.push_back(
            {columns[(t + j) % columns.size()], {100 + j, 30000 + j * 7}});
      }
      BatchEstimateResult result;
      for (int i = 0; i < 60; ++i) {
        const Status status = manager.EstimateBatch(table, requests, &result);
        if (!status.ok() || result.estimates.size() != requests.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (const double estimate : result.estimates) {
          if (!(estimate >= 0.0) ||
              estimate > static_cast<double>(table.tuple_count())) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&]() {
    for (int i = 0; i < 20; ++i) {
      manager.RecordModifications(columns[i % columns.size()],
                                  table.tuple_count() / 4);
      (void)manager.EnsureFresh(columns[i % columns.size()], table);
    }
  });
  threads.emplace_back([&]() {
    for (int i = 0; i < 10; ++i) manager.Drop(columns[i % columns.size()]);
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StatsConcurrencyTest, EstimateBatchDuplicateColumnsResolveOnce) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 40, .f = 0.25, .threads = 1});
  // The same column repeated across the batch: one snapshot resolution
  // and one build serve all of its queries, and every duplicate request
  // with an identical range gets a bitwise-identical answer.
  const auto domain = static_cast<Value>(table.tuple_count() / 50);
  std::vector<BatchEstimateRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back({"dup", {0, domain / 2}});
    requests.push_back({"other", {domain / 4, domain}});
    requests.push_back({"dup", {0, domain / 2}});
  }
  BatchEstimateResult result;
  ASSERT_TRUE(manager.EstimateBatch(table, requests, &result).ok());
  ASSERT_EQ(result.estimates.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].column == "dup") {
      EXPECT_EQ(result.estimates[i], result.estimates[0]) << i;
    }
  }
  // Two distinct columns → exactly two builds, duplicates notwithstanding.
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_EQ(manager.size(), 2u);
}

TEST(StatsConcurrencyTest, EstimateBatchUnknownColumnMixedWithHealthy) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 40,
                             .f = 0.25,
                             .threads = 1,
                             .retry = {.max_attempts = 1},
                             .fallback_on_unbuilt = false});
  ASSERT_TRUE(manager.GetOrBuildShared("healthy", table).ok());

  // Storage goes dark: a never-built column mixed into the batch cannot
  // build, and with the fallback disabled its error must surface as the
  // batch's result — never a fabricated estimate. The healthy column's
  // snapshot is unaffected.
  FaultInjector blackout(FaultSpec{.lost_probability = 1.0, .seed = 7});
  table.set_fault_injector(&blackout);
  const auto domain = static_cast<Value>(table.tuple_count() / 50);
  const std::vector<BatchEstimateRequest> requests = {
      {"healthy", {0, domain}},
      {"never_built", {0, domain}},
      {"healthy", {domain / 2, domain}},
  };
  BatchEstimateResult result;
  const Status status = manager.EstimateBatch(table, requests, &result);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(manager.Has("never_built"));

  // Healthy-only batches keep serving from the snapshot, blackout or not.
  const std::vector<BatchEstimateRequest> healthy_only = {
      {"healthy", {0, domain}}};
  ASSERT_TRUE(manager.EstimateBatch(table, healthy_only, &result).ok());
  ASSERT_EQ(result.estimates.size(), 1u);
  EXPECT_GE(result.estimates[0], 0.0);

  // Storage recovers: the same mixed batch now builds and answers fully.
  table.set_fault_injector(nullptr);
  ASSERT_TRUE(manager.EstimateBatch(table, requests, &result).ok());
  ASSERT_EQ(result.estimates.size(), requests.size());
  EXPECT_TRUE(manager.Has("never_built"));
}

TEST(StatsConcurrencyTest, EstimateBatchRacingDropsNeverCorruptsAnswers) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 30, .f = 0.3, .threads = 2});
  const std::vector<std::string> columns = {"d0", "d1", "d2"};
  for (const auto& c : columns) {
    ASSERT_TRUE(manager.GetOrBuildShared(c, table).ok());
  }
  const auto domain = static_cast<Value>(table.tuple_count() / 50);
  std::vector<BatchEstimateRequest> requests;
  for (const auto& c : columns) {
    requests.push_back({c, {0, domain}});
    requests.push_back({c, {domain / 2, 2 * domain}});
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 40; ++i) {
        BatchEstimateResult result;
        // A Drop racing the batch either rebuilds transparently (first
        // access semantics) or the batch fails cleanly; both are fine,
        // a torn or out-of-range answer is not.
        if (!manager.EstimateBatch(table, requests, &result).ok()) continue;
        if (result.estimates.size() != requests.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (const double estimate : result.estimates) {
          if (!(estimate >= 0.0) ||
              estimate > static_cast<double>(table.tuple_count())) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&]() {
    for (int i = 0; i < 60; ++i) {
      manager.Drop(columns[i % columns.size()]);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StatsConcurrencyTest, SnapshotOutlivesDropAndRebuild) {
  Table table = SmallTable();
  StatisticsManager manager({.buckets = 30, .f = 0.3, .threads = 1});
  auto snapshot = manager.GetOrBuildShared("col", table);
  ASSERT_TRUE(snapshot.ok());
  const std::uint64_t rows = (*snapshot)->row_count;
  manager.RecordModifications("col", table.tuple_count() * 2);
  ASSERT_TRUE(manager.EnsureFresh("col", table).ok());  // rebuild
  EXPECT_TRUE(manager.Drop("col"));
  // The old snapshot is still safely readable.
  EXPECT_EQ((*snapshot)->row_count, rows);
}

}  // namespace
}  // namespace equihist
