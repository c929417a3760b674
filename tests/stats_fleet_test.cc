// StatisticsFleet tests (DESIGN.md §16): shard routing, the cross-shard
// batch front-end under concurrent callers, bitwise identity with a
// single StatisticsManager (also under concurrent DML and rebuilds),
// snapshot handles across republishes, the fleetwire frame protocol
// (round-trips and the byte-level corruption matrix), ServeFrame
// dispatch, and the metrics plane. The concurrency cases run under TSan
// in CI (label `fleet`).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <latch>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "data/distribution.h"
#include "query/planner.h"
#include "stats/fleet_wire.h"
#include "stats/statistics_fleet.h"
#include "stats/statistics_manager.h"
#include "stats/transport.h"
#include "storage/fault_injection.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};

Table SmallTable(std::uint64_t n = 60000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.2, .seed = seed});
  return Table::Create(*freq, kPage,
                       {.kind = LayoutKind::kRandom, .seed = seed})
      .value();
}

StatisticsShard::Options ShardOptions() {
  return {.buckets = 40, .f = 0.25, .seed = 17, .threads = 1};
}

std::vector<std::string> Columns(std::size_t n) {
  std::vector<std::string> columns;
  columns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    columns.push_back("t.c" + std::to_string(i));
  }
  return columns;
}

std::vector<BatchEstimateRequest> MixedBatch(
    const std::vector<std::string>& columns, const Table& table,
    std::size_t queries_per_column) {
  std::vector<BatchEstimateRequest> requests;
  const auto domain = static_cast<Value>(table.tuple_count() / 50);
  for (std::size_t q = 0; q < queries_per_column; ++q) {
    for (const std::string& column : columns) {  // columns interleaved
      const Value lo = static_cast<Value>(q) * domain / 8;
      requests.push_back({column, {lo, lo + domain / 4}});
    }
  }
  return requests;
}

// -- Routing & bitwise identity ----------------------------------------------

TEST(StatisticsFleetTest, RoutingPartitionsColumnsByFnv1a) {
  StatisticsFleet fleet({.shards = 4, .shard = ShardOptions()});
  ASSERT_EQ(fleet.shard_count(), 4u);
  Table table = SmallTable();
  const auto columns = Columns(16);
  for (const std::string& column : columns) {
    const std::size_t owner = fleet.ShardIndex(column);
    EXPECT_EQ(owner, HashColumnName(column) % 4);
    ASSERT_TRUE(fleet.EnsureFresh(column, table).ok()) << column;
    // The column lives exactly on its owning shard.
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      EXPECT_EQ(fleet.shard(s).Has(column), s == owner) << column;
    }
  }
  EXPECT_EQ(fleet.size(), columns.size());
}

TEST(StatisticsFleetTest, FleetMatchesSingleManagerBitwise) {
  Table table = SmallTable();
  const auto columns = Columns(8);
  const auto requests = MixedBatch(columns, table, 6);

  StatisticsManager manager(ShardOptions());
  ASSERT_TRUE(manager.BuildAll(columns, table).ok());
  BatchEstimateResult expected;
  ASSERT_TRUE(manager.EstimateBatch(table, requests, &expected).ok());

  for (const std::uint64_t shards : {1u, 3u, 4u, 7u}) {
    StatisticsFleet fleet({.shards = shards, .shard = ShardOptions()});
    ASSERT_TRUE(fleet.BuildAll(columns, table).ok());
    BatchEstimateResult got;
    ASSERT_TRUE(fleet.EstimateBatch(table, requests, &got).ok());
    ASSERT_EQ(got.estimates.size(), expected.estimates.size());
    for (std::size_t i = 0; i < expected.estimates.size(); ++i) {
      // Bitwise: build seeds depend only on (seed, column, generation),
      // never on shard placement.
      EXPECT_EQ(got.estimates[i], expected.estimates[i])
          << "shards=" << shards << " i=" << i;
    }
    // Scalar path agrees too.
    for (const std::string& column : columns) {
      const RangeQuery query{0, static_cast<Value>(table.tuple_count())};
      EXPECT_EQ(*fleet.EstimateRange(column, table, query),
                *manager.EstimateRange(column, table, query));
    }
  }
}

TEST(StatisticsFleetTest, PlannerFleetOverloadMatchesShardOverload) {
  Table table = SmallTable();
  const auto columns = Columns(5);
  const auto requests = MixedBatch(columns, table, 4);

  StatisticsManager manager(ShardOptions());
  ASSERT_TRUE(manager.BuildAll(columns, table).ok());
  const auto via_shard = ChooseAccessPaths(manager, table, requests,
                                           table.tuples_per_page());
  ASSERT_TRUE(via_shard.ok());

  StatisticsFleet fleet({.shards = 4, .shard = ShardOptions()});
  ASSERT_TRUE(fleet.BuildAll(columns, table).ok());
  const auto via_fleet =
      ChooseAccessPaths(fleet, table, requests, table.tuples_per_page());
  ASSERT_TRUE(via_fleet.ok());

  ASSERT_EQ(via_fleet->size(), via_shard->size());
  for (std::size_t i = 0; i < via_shard->size(); ++i) {
    EXPECT_EQ((*via_fleet)[i].path, (*via_shard)[i].path) << i;
    EXPECT_EQ((*via_fleet)[i].estimated_rows, (*via_shard)[i].estimated_rows)
        << i;
  }
}

TEST(StatisticsFleetTest, BuildAllAggregatesAcrossShardsInInputOrder) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 3, .shard = ShardOptions()});
  const auto columns = Columns(9);
  const auto sweep = fleet.BuildAll(columns, table);
  EXPECT_EQ(sweep.attempted, columns.size());
  EXPECT_EQ(sweep.succeeded, columns.size());
  EXPECT_TRUE(sweep.ok());
  EXPECT_EQ(fleet.size(), columns.size());
  for (const std::string& column : columns) {
    EXPECT_TRUE(fleet.Has(column));
    EXPECT_EQ(fleet.Health(column).health, ColumnHealth::kFresh);
  }
}

// -- Batch edge cases --------------------------------------------------------

TEST(StatisticsFleetTest, EmptyBatchIsOkAndNullResultRejected) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 2, .shard = ShardOptions()});
  BatchEstimateResult result;
  result.estimates = {1.0, 2.0};  // stale contents must be cleared
  EXPECT_TRUE(fleet.EstimateBatch(table, {}, &result).ok());
  EXPECT_TRUE(result.estimates.empty());
  EXPECT_EQ(fleet.EstimateBatch(table, {}, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(StatisticsFleetTest, NeverBuiltColumnsBuildOnFirstBatch) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 4, .shard = ShardOptions()});
  // Nothing pre-built: the batch itself triggers first-access builds on
  // every owning shard, exactly like EstimateRange would.
  const auto columns = Columns(6);
  const auto requests = MixedBatch(columns, table, 2);
  BatchEstimateResult result;
  ASSERT_TRUE(fleet.EstimateBatch(table, requests, &result).ok());
  ASSERT_EQ(result.estimates.size(), requests.size());
  for (const double estimate : result.estimates) {
    EXPECT_GE(estimate, 0.0);
  }
  EXPECT_EQ(fleet.size(), columns.size());
}

// -- Concurrent serving ------------------------------------------------------

TEST(StatisticsFleetTest, ConcurrentBatchesServedDirectlyStayCorrect) {
  Table table = SmallTable();
  const auto columns = Columns(6);
  StatisticsFleet fleet({.shards = 2, .shard = ShardOptions()});
  ASSERT_TRUE(fleet.BuildAll(columns, table).ok());

  // Serial ground truth per thread's batch.
  StatisticsManager manager(ShardOptions());
  ASSERT_TRUE(manager.BuildAll(columns, table).ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread's batch starts at a different column rotation, so
      // concurrent callers hit every shard with distinct sub-batches.
      std::vector<std::string> rotated(columns.begin() + t % columns.size(),
                                       columns.end());
      rotated.insert(rotated.end(), columns.begin(),
                     columns.begin() + t % columns.size());
      const auto requests = MixedBatch(rotated, table, 3);
      BatchEstimateResult expected;
      if (!manager.EstimateBatch(table, requests, &expected).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        BatchEstimateResult got;
        if (!fleet.EstimateBatch(table, requests, &got).ok() ||
            got.estimates != expected.estimates) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Every query was served, each caller's batch on its own.
  EXPECT_GE(fleet.fleet_metrics().counter(metrics::Counter::kEstimateQueries),
            static_cast<std::uint64_t>(kThreads) * kRounds *
                columns.size() * 3);
  EXPECT_EQ(
      fleet.fleet_metrics().counter(metrics::Counter::kCoalescedRequests), 0u);
}

// -- Snapshot lifetime -------------------------------------------------------

// The handle EnsureFresh returns keeps its snapshot alive after the
// fleet's own scheduler republishes the column on one of its threads (ASan
// checks the reads in CI).
TEST(StatisticsFleetTest, SnapshotHandleOutlivesASchedulerRepublish) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 4,
                         .shard = ShardOptions(),
                         .scheduler = {.max_inflight = 2, .threads = 2}});
  const std::string column = "t.c0";
  const auto handle = fleet.EnsureFresh(column, table);
  ASSERT_TRUE(handle.ok());
  const ColumnStatistics& held = **handle;
  const auto domain = static_cast<Value>(table.tuple_count() / 50);
  const RangeQuery query{domain / 8, domain / 2};
  const double estimate = held.EstimateRangeCount(query);
  const std::uint64_t rows = held.row_count;
  const double distinct = held.distinct_estimate;
  const std::string summary = held.ToString();
  const StatisticsShard& owner = fleet.shard(fleet.ShardIndex(column));
  const std::uint64_t rebuilds = owner.rebuild_count();

  fleet.RecordModifications(column, table.tuple_count());
  fleet.ScheduleBuild("t", column, table);
  fleet.DrainBuilds();
  ASSERT_EQ(owner.rebuild_count(), rebuilds + 1);
  const auto republished = fleet.EnsureFresh(column, table);
  ASSERT_TRUE(republished.ok());
  EXPECT_NE(&**republished, &held);

  EXPECT_EQ(held.EstimateRangeCount(query), estimate);
  EXPECT_EQ(held.row_count, rows);
  EXPECT_EQ(held.distinct_estimate, distinct);
  EXPECT_EQ(held.ToString(), summary);
}

// -- Batch metrics -----------------------------------------------------------

// Each shard a fleet batch touches records its part as one batch of its
// own: one batch, its request count and one batch-size sample of that
// count. Untouched shards record nothing; the fleet plane records the
// whole batch once.
TEST(StatisticsFleetTest, BatchMetricsCountEachTouchedShardOnce) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 4, .shard = ShardOptions()});
  // Two columns on shard 0 and one each on shards 1 and 2; shard 3 gets
  // none.
  std::vector<std::string> on_shard[4];
  for (const std::string& column : Columns(64)) {
    on_shard[fleet.ShardIndex(column)].push_back(column);
  }
  ASSERT_GE(on_shard[0].size(), 2u);
  ASSERT_FALSE(on_shard[1].empty());
  ASSERT_FALSE(on_shard[2].empty());
  const std::vector<std::string> columns = {on_shard[0][0], on_shard[1][0],
                                            on_shard[0][1], on_shard[2][0]};
  ASSERT_TRUE(fleet.BuildAll(columns, table).ok());
  // Shard 0's two columns interleave with the others.
  auto requests = MixedBatch(columns, table, 3);
  requests.push_back({on_shard[1][0], {0, 10}});
  std::vector<std::uint64_t> expected(fleet.shard_count(), 0);
  for (const BatchEstimateRequest& request : requests) {
    ++expected[fleet.ShardIndex(request.column)];
  }
  ASSERT_EQ(expected[3], 0u);

  const auto read = [](const metrics::MetricsPlane& plane) {
    return std::vector<std::uint64_t>{
        plane.counter(metrics::Counter::kEstimateBatches),
        plane.counter(metrics::Counter::kEstimateQueries),
        plane.hist_count(metrics::Hist::kEstimateBatchSize),
        plane.hist_sum(metrics::Hist::kEstimateBatchSize)};
  };
  std::vector<std::vector<std::uint64_t>> before;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    before.push_back(read(fleet.shard(s).metrics()));
  }
  const auto fleet_before = read(fleet.fleet_metrics());
  BatchEstimateResult result;
  ASSERT_TRUE(fleet.EstimateBatch(table, requests, &result).ok());

  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    const auto after = read(fleet.shard(s).metrics());
    const std::uint64_t touched = expected[s] > 0 ? 1 : 0;
    EXPECT_EQ(after[0] - before[s][0], touched) << "shard " << s;
    EXPECT_EQ(after[1] - before[s][1], expected[s]) << "shard " << s;
    EXPECT_EQ(after[2] - before[s][2], touched) << "shard " << s;
    EXPECT_EQ(after[3] - before[s][3], expected[s]) << "shard " << s;
  }
  const auto fleet_after = read(fleet.fleet_metrics());
  EXPECT_EQ(fleet_after[0] - fleet_before[0], 1u);
  EXPECT_EQ(fleet_after[1] - fleet_before[1], requests.size());
  EXPECT_EQ(fleet_after[2] - fleet_before[2], 1u);
  EXPECT_EQ(fleet_after[3] - fleet_before[3], requests.size());
}

// -- Determinism under load --------------------------------------------------

// perfbench's `mixed` output check at test scale: two readers plan
// 16-predicate batches through the fleet while a writer applies DML
// bursts to incremental columns (id 5), refreshing after each burst and,
// every 8th, rebuilding through the scheduler (one thread: inline on the
// writer). Replaying the writer's op log through one StatisticsManager
// must give the fleet's final answers bit for bit.
TEST(StatisticsFleetTest, ReadersBesideDmlAndRebuildsMatchTheReplayBitwise) {
  constexpr std::size_t kColumns = 16;
  constexpr std::uint64_t kBursts = 96;
  constexpr std::uint64_t kBurstOps = 200;
  constexpr std::uint64_t kRebuildEvery = 8;
  Table table = SmallTable(50000, 5);
  const std::uint64_t domain = table.tuple_count() / 50;
  auto options = ShardOptions();
  options.default_backend = HistogramBackendId::kIncrementalEquiDepth;
  options.staleness_threshold = 0.001;  // below one burst
  StatisticsFleet fleet({.shards = 4,
                         .shard = options,
                         .scheduler = {.max_inflight = 1, .threads = 1}});
  const auto columns = Columns(kColumns);
  ASSERT_TRUE(fleet.BuildAll(columns, table).ok());

  std::vector<std::vector<BatchEstimateRequest>> batches(32);
  Rng batch_rng(11);
  for (auto& batch : batches) {
    for (int i = 0; i < 16; ++i) {
      const auto lo = static_cast<Value>(batch_rng.NextBounded(domain));
      const auto width = static_cast<Value>(batch_rng.NextBounded(domain / 4));
      batch.push_back({columns[batch_rng.NextBounded(kColumns)],
                       {lo, lo + width}});
    }
  }
  // The DML of one burst, regenerated from its index: alternating inserts
  // and deletes.
  const auto burst_ops = [&](std::uint64_t burst) {
    Rng rng(DeriveStreamSeed(23, burst));
    std::vector<std::pair<bool, Value>> ops(kBurstOps);
    for (std::uint64_t j = 0; j < kBurstOps; ++j) {
      ops[j] = {j % 2 == 0, static_cast<Value>(rng.NextBounded(domain))};
    }
    return ops;
  };
  const auto forced = [](std::uint64_t burst) {
    return burst % kRebuildEvery == kRebuildEvery - 1;
  };
  const auto apply = [&](auto& target, std::uint64_t burst) {
    const std::string& column = columns[burst % kColumns];
    for (const auto& [insert, value] : burst_ops(burst)) {
      if (insert) {
        target.RecordInsert(column, value);
      } else {
        target.RecordDelete(column, value);
      }
    }
    if (forced(burst)) target.RecordModifications(column, 1);
    return column;
  };

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::latch readers_started(2);  // the writer starts once both have read
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r]() {
      for (std::size_t i = r; i == r || !writer_done.load(); ++i) {
        const auto& batch = batches[i % batches.size()];
        const auto plans =
            ChooseAccessPaths(fleet, table, batch, table.tuples_per_page());
        if (!plans.ok() || plans->size() != batch.size()) failures.fetch_add(1);
        if (i == r) readers_started.count_down();
      }
    });
  }
  readers_started.wait();
  for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
    const std::string column = apply(fleet, burst);
    if (forced(burst)) fleet.ScheduleBuild("t", column, table);
    if (!fleet.EnsureFresh(column, table).ok()) failures.fetch_add(1);
  }
  writer_done.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  // The load ran both write paths: O(Δ) refreshes and full rebuilds.
  std::uint64_t refreshes = 0;
  std::uint64_t rebuilds = 0;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    refreshes += fleet.shard(s).incremental_refresh_count();
    rebuilds += fleet.shard(s).rebuild_count();
  }
  EXPECT_EQ(refreshes, kBursts - kBursts / kRebuildEvery);
  EXPECT_EQ(rebuilds, kColumns + kBursts / kRebuildEvery);

  StatisticsManager replay(options);
  ASSERT_TRUE(replay.BuildAll(columns, table).ok());
  for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
    ASSERT_TRUE(replay.EnsureFresh(apply(replay, burst), table).ok());
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    BatchEstimateResult got;
    BatchEstimateResult want;
    ASSERT_TRUE(fleet.EstimateBatch(table, batches[b], &got).ok());
    ASSERT_TRUE(replay.EstimateBatch(table, batches[b], &want).ok());
    ASSERT_EQ(got.estimates.size(), want.estimates.size());
    EXPECT_EQ(std::memcmp(got.estimates.data(), want.estimates.data(),
                          got.estimates.size() * sizeof(double)),
              0)
        << "batch " << b;
    // And each answer is the replay snapshot's own, outside any batch loop.
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      const BatchEstimateRequest& request = batches[b][i];
      const auto snapshot = replay.GetOrBuildShared(request.column, table);
      ASSERT_TRUE(snapshot.ok());
      const double direct = (*snapshot)->EstimateRangeCount(request.query);
      EXPECT_EQ(std::memcmp(&got.estimates[i], &direct, sizeof(double)), 0)
          << "batch " << b << " request " << i;
    }
  }
}

// -- Borrowed pins -----------------------------------------------------------

// A batch's pins borrow their models from the thread's serving cache
// (DESIGN.md §14). Here one reader asks every one of 80 columns (more than
// the 64 cache slots) twice per batch, on four shards, so FIFO eviction
// drops slots the running batch still answers from. A writer meanwhile
// rebuilds each column and then drops and re-creates it, so some of those
// slots held the column's last model. Every answer must be one of the
// column's two possible snapshots, the same one for both of its requests
// in a batch (a consistent cut), bit for bit as a replay through one
// StatisticsManager builds them; an answer read through a freed model
// fails here, or under ASan.
TEST(StatisticsFleetTest, BorrowedPinsOutliveEvictedAndRepublishedSlots) {
  constexpr std::size_t kColumns = 80;
  constexpr std::size_t kMinWrites = 2 * kColumns;  // each column, each way
  constexpr std::size_t kMaxWrites = 40 * kColumns;
  Table table = SmallTable(20000, 7);
  const std::uint64_t n = table.tuple_count();
  const auto domain = static_cast<Value>(n / 50);
  const auto columns = Columns(kColumns);
  StatisticsFleet fleet({.shards = 4, .shard = ShardOptions()});
  std::vector<bool> shard_used(fleet.shard_count(), false);
  for (const std::string& column : columns) {
    shard_used[fleet.ShardIndex(column)] = true;
  }
  ASSERT_GE(std::count(shard_used.begin(), shard_used.end(), true), 2);
  ASSERT_TRUE(fleet.BuildAll(columns, table).ok());

  // A column's snapshot is its first build (generation 0: built, or
  // dropped and re-created) or its rebuild (generation 1).
  const RangeQuery queries[2] = {{0, domain / 3}, {domain / 5, domain / 2}};
  std::vector<double> want[2];
  StatisticsManager replay(ShardOptions());
  ASSERT_TRUE(replay.BuildAll(columns, table).ok());
  for (int generation = 0; generation < 2; ++generation) {
    for (const std::string& column : columns) {
      if (generation == 1) {
        replay.RecordModifications(column, n);
        ASSERT_TRUE(replay.EnsureFresh(column, table).ok());
      }
      for (const RangeQuery& query : queries) {
        want[generation].push_back(
            *replay.EstimateRange(column, table, query));
      }
    }
  }

  std::atomic<bool> writes_done{false};
  std::atomic<bool> both_seen{false};
  std::atomic<int> failures{0};
  StatisticsShard::PinnedEvictions seen;
  std::uint64_t batches = 0;
  std::thread reader([&]() {
    for (std::size_t b = 0; !writes_done.load(); ++b, ++batches) {
      // Both passes in one rotation: a column's second request comes 80
      // distinct columns after its first, when its slot is gone.
      std::vector<BatchEstimateRequest> requests;
      for (std::size_t pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < kColumns; ++i) {
          requests.push_back(
              {columns[(b * 7 + i) % kColumns], queries[pass]});
        }
      }
      BatchEstimateResult got;
      if (!fleet.EstimateBatch(table, requests, &got).ok()) {
        failures.fetch_add(1);
        continue;
      }
      for (std::size_t i = 0; i < kColumns; ++i) {
        const std::size_t c = (b * 7 + i) % kColumns;
        const double answers[2] = {got.estimates[i],
                                   got.estimates[kColumns + i]};
        const auto is = [&](int generation) {
          return std::memcmp(answers, &want[generation][2 * c],
                             sizeof(answers)) == 0;
        };
        if (!is(0) && !is(1)) failures.fetch_add(1);
      }
      seen = StatisticsShard::ThreadPinnedEvictions();
      if (seen.evicted > 0 && seen.evicted_after_republish > 0) {
        both_seen.store(true);
      }
    }
  });
  std::size_t writes = 0;
  for (; writes < kMaxWrites && (writes < kMinWrites || !both_seen.load());
       ++writes) {
    const std::string& column = columns[writes % kColumns];
    if ((writes / kColumns) % 2 == 0) {
      fleet.RecordModifications(column, n);  // rebuild: generation 1
    } else {
      fleet.Drop(column);  // re-created below: generation 0
    }
    if (!fleet.EnsureFresh(column, table).ok()) failures.fetch_add(1);
  }
  writes_done.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(batches, 0u);
  // The reader's batches evicted slots they had pinned, and some of those
  // belonged to columns republished or dropped since their capture.
  EXPECT_GT(seen.evicted, 0u) << writes << " writes, " << batches
                              << " batches";
  EXPECT_GT(seen.evicted_after_republish, 0u)
      << writes << " writes, " << batches << " batches";
}

// -- Wire protocol -----------------------------------------------------------

TEST(FleetWireTest, EstimateBatchFramesRoundTrip) {
  fleetwire::EstimateBatchRequestFrame request;
  request.requests = {{"t.a", {-5, 10}},
                      {"t.b", {0, 0}},
                      {"weird \"name\"", {-1000000, 1000000}}};
  const auto bytes = fleetwire::Encode(request);
  ASSERT_EQ(*fleetwire::PeekType(bytes),
            fleetwire::FrameType::kEstimateBatchRequest);
  const auto decoded = fleetwire::DecodeEstimateBatchRequest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->requests.size(), request.requests.size());
  for (std::size_t i = 0; i < request.requests.size(); ++i) {
    EXPECT_EQ(decoded->requests[i].column, request.requests[i].column);
    EXPECT_EQ(decoded->requests[i].query.lo, request.requests[i].query.lo);
    EXPECT_EQ(decoded->requests[i].query.hi, request.requests[i].query.hi);
  }

  fleetwire::EstimateBatchResponseFrame response;
  response.estimates = {0.0, 123.456, -1.0, 1e18};
  const auto response_bytes = fleetwire::Encode(response);
  const auto response_decoded =
      fleetwire::DecodeEstimateBatchResponse(response_bytes);
  ASSERT_TRUE(response_decoded.ok());
  EXPECT_EQ(response_decoded->estimates, response.estimates);
}

std::string Hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

// Golden bytes: a fixed 16-predicate estimate request and its response,
// bare and inside the transport envelope each direction uses. Recorded
// from the encoder that grew each frame one push at a time, so a peer of
// either version, and every fuzz corpus seed, still reads the other's
// bytes.
TEST(FleetWireTest, GoldenEstimateFramesAndEnvelopesKeepTheirBytes) {
  fleetwire::EstimateBatchRequestFrame request;
  const Value edges[] = {std::numeric_limits<Value>::min(), -1'000'000'007,
                         -64, -1, 0, 63, 64, 8191, 1'000'000,
                         std::int64_t{1} << 40,
                         std::numeric_limits<Value>::max()};
  for (std::size_t i = 0; i < 16; ++i) {
    Value lo = edges[i % std::size(edges)];
    Value hi = edges[(i * 5 + 3) % std::size(edges)];
    if (lo > hi) std::swap(lo, hi);
    request.requests.push_back(
        {(i % 5 == 4 ? "orders.customer_region_" : "t.c") +
             std::to_string(i % 7),
         {lo, hi}});
  }
  fleetwire::EstimateBatchResponseFrame response;
  for (std::size_t i = 0; i < 16; ++i) {
    response.estimates.push_back(
        i == 0 ? 0.0
               : static_cast<double>(i * i * 1237) / 7.0 +
                     (i % 4 == 0 ? 1e15 : 0.0));
  }
  const std::vector<std::uint8_t> request_bytes = fleetwire::Encode(request);
  const std::vector<std::uint8_t> response_bytes =
      fleetwire::Encode(response);
  const std::string request_hex =
      "464c01011004742e6330ffffffffffffffffff010104742e63318da8d6b90780"
      "897a04742e63327f7f04742e633301fe7f186f72646572732e637573746f6d65"
      "725f726567696f6e5f348da8d6b9070004742e63357e800104742e6336ffffff"
      "ffffffffffff01800104742e63307efe7f04742e633180897afeffffffffffff"
      "ffff01186f72646572732e637573746f6d65725f726567696f6e5f3200808080"
      "80804004742e6333808080808040feffffffffffffffff0104742e6334ffffff"
      "ffffffffffff010104742e63358da8d6b90780897a04742e63367f7f186f7264"
      "6572732e637573746f6d65725f726567696f6e5f3001fe7f04742e63318da8d6"
      "b90700";
  const std::string response_hex =
      "464c01021000000000000000006edbb66ddb1666406edbb66ddb168640dbb66d"
      "dbb6d998405b583426f56b0c436edbb66ddb41b140dbb66ddbb6d9b840000000"
      "0080e9c0406e613526f56b0c43b76ddbb6edf4cb406edbb66ddb41d1406edbb6"
      "6d9be1d440371b3726f56b0c43b76ddbb62d2add400000000080e9e040dbb66d"
      "db166ae340";
  EXPECT_EQ(request_bytes.size(), 259u);
  EXPECT_EQ(response_bytes.size(), 133u);
  EXPECT_EQ(Hex(request_bytes), request_hex);
  EXPECT_EQ(Hex(response_bytes), response_hex);
  // Length prefix, request id, budget (requests only), FNV-1a checksum.
  EXPECT_EQ(Hex(transport::EncodeEnvelope(77, 250'000, true, request_bytes)),
            "90024d90a10fc2f9b7b9cebeb3d759" + request_hex);
  EXPECT_EQ(Hex(transport::EncodeEnvelope(77, 0, false, response_bytes)),
            "8f014dd9be9fbcac9ec6fe1e" + response_hex);
}

TEST(FleetWireTest, BuildControlAndMetricsFramesRoundTrip) {
  for (const auto op :
       {fleetwire::BuildOp::kEnsureFresh, fleetwire::BuildOp::kDrop,
        fleetwire::BuildOp::kRecordModifications}) {
    fleetwire::BuildControlRequestFrame request{op, "t.col", 4242};
    const auto bytes = fleetwire::Encode(request);
    const auto decoded = fleetwire::DecodeBuildControlRequest(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->op, op);
    EXPECT_EQ(decoded->column, "t.col");
    if (op == fleetwire::BuildOp::kRecordModifications) {
      EXPECT_EQ(decoded->count, 4242u);
    }
  }

  fleetwire::BuildControlResponseFrame response{StatusCode::kUnavailable,
                                                "page 7 lost"};
  const auto response_bytes = fleetwire::Encode(response);
  const auto response_decoded =
      fleetwire::DecodeBuildControlResponse(response_bytes);
  ASSERT_TRUE(response_decoded.ok());
  EXPECT_EQ(response_decoded->code, StatusCode::kUnavailable);
  EXPECT_EQ(response_decoded->message, "page 7 lost");

  EXPECT_TRUE(
      fleetwire::DecodeMetricsRequest(fleetwire::EncodeMetricsRequest()).ok());
  fleetwire::MetricsResponseFrame metrics{R"({"counters":{}})"};
  const auto metrics_decoded =
      fleetwire::DecodeMetricsResponse(fleetwire::Encode(metrics));
  ASSERT_TRUE(metrics_decoded.ok());
  EXPECT_EQ(metrics_decoded->json, metrics.json);
}

TEST(FleetWireTest, MalformedHeadersAreRejected) {
  const auto good = fleetwire::Encode(fleetwire::EstimateBatchRequestFrame{
      {{"t.a", {0, 5}}}});
  EXPECT_FALSE(fleetwire::PeekType({}).ok());
  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(fleetwire::PeekType(bad_magic).ok());
  auto bad_version = good;
  bad_version[2] = 0x7F;
  EXPECT_FALSE(fleetwire::PeekType(bad_version).ok());
  auto bad_type = good;
  bad_type[3] = 0x63;
  EXPECT_FALSE(fleetwire::PeekType(bad_type).ok());
  // Type confusion: a request decoded as another frame type fails.
  EXPECT_FALSE(fleetwire::DecodeEstimateBatchResponse(good).ok());
  EXPECT_FALSE(fleetwire::DecodeBuildControlRequest(good).ok());
  // Trailing garbage after a complete frame fails.
  auto trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(fleetwire::DecodeEstimateBatchRequest(trailing).ok());
}

TEST(FleetWireTest, CorruptionMatrixNeverCrashesAndTruncationAlwaysFails) {
  fleetwire::EstimateBatchRequestFrame request;
  request.requests = {{"orders.total", {-100, 100}},
                      {"orders.qty", {3, 900000}}};
  const auto frame = fleetwire::Encode(request);

  // Every strict prefix must fail: a frame consumes its buffer exactly.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(frame.data(), cut);
    const auto decoded = fleetwire::DecodeEstimateBatchRequest(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
  }

  // Every single-byte mutation either fails cleanly or yields a valid
  // frame (bit flips inside a column name are legitimately undetectable);
  // what it must never do is crash, hang, or read out of bounds — ASan/
  // UBSan in CI give this loop teeth.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const std::uint8_t mutation :
         {static_cast<std::uint8_t>(frame[i] ^ 0x01),
          static_cast<std::uint8_t>(frame[i] ^ 0x80),
          static_cast<std::uint8_t>(frame[i] + 1),
          static_cast<std::uint8_t>(0x00),
          static_cast<std::uint8_t>(0xFF)}) {
      auto mutated = frame;
      mutated[i] = mutation;
      const auto decoded = fleetwire::DecodeEstimateBatchRequest(mutated);
      if (decoded.ok()) {
        EXPECT_LE(decoded->requests.size(), 1000u);  // sane, bounded result
      } else {
        EXPECT_FALSE(decoded.status().message().empty());
      }
    }
  }
}

TEST(FleetWireTest, SeededRandomFuzzSweepOverEveryFrameType) {
  // The systematic matrix above flips one byte at a time; this sweep
  // layers seeded random MULTI-byte mutations over every frame type —
  // the damage a real flaky link inflicts is rarely a single bit. CI
  // drives it with a randomized EQUIHIST_CHAOS_SEED; the seed is printed
  // so any failure replays exactly. ASan/UBSan give the loop teeth.
  std::uint64_t seed = 0xF022ED2026ULL;
  if (const char* env = std::getenv("EQUIHIST_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::cout << "[fuzz] EQUIHIST_CHAOS_SEED=" << seed << std::endl;
  SCOPED_TRACE("EQUIHIST_CHAOS_SEED=" + std::to_string(seed));
  Rng rng(seed);

  // One exemplar frame per type, plus a decoder that must never crash on
  // its mangled bytes (success is fine — some mutations are semantically
  // invisible — but an OK decode must still be internally sane).
  struct FuzzTarget {
    const char* name;
    std::vector<std::uint8_t> frame;
    std::function<Status(std::span<const std::uint8_t>)> decode;
  };
  const std::vector<FuzzTarget> targets = {
      {"estimate-request",
       fleetwire::Encode(fleetwire::EstimateBatchRequestFrame{
           {{"orders.total", {-100, 100}}, {"orders.qty", {3, 900000}}}}),
       [](std::span<const std::uint8_t> b) {
         return fleetwire::DecodeEstimateBatchRequest(b).status();
       }},
      {"estimate-response",
       fleetwire::Encode(
           fleetwire::EstimateBatchResponseFrame{{0.0, 123.456, -1.0, 1e18}}),
       [](std::span<const std::uint8_t> b) {
         return fleetwire::DecodeEstimateBatchResponse(b).status();
       }},
      {"build-request",
       fleetwire::Encode(fleetwire::BuildControlRequestFrame{
           fleetwire::BuildOp::kRecordModifications, "t.col", 4242}),
       [](std::span<const std::uint8_t> b) {
         return fleetwire::DecodeBuildControlRequest(b).status();
       }},
      {"build-response",
       fleetwire::Encode(fleetwire::BuildControlResponseFrame{
           StatusCode::kUnavailable, "page 7 lost"}),
       [](std::span<const std::uint8_t> b) {
         return fleetwire::DecodeBuildControlResponse(b).status();
       }},
      {"metrics-request", fleetwire::EncodeMetricsRequest(),
       [](std::span<const std::uint8_t> b) {
         return fleetwire::DecodeMetricsRequest(b);
       }},
      {"metrics-response",
       fleetwire::Encode(
           fleetwire::MetricsResponseFrame{R"({"counters":{}})"}),
       [](std::span<const std::uint8_t> b) {
         return fleetwire::DecodeMetricsResponse(b).status();
       }},
      {"rejection",
       fleetwire::Encode(fleetwire::RejectionFrame{
           StatusCode::kResourceExhausted, "server work queue full"}),
       [](std::span<const std::uint8_t> b) {
         return fleetwire::DecodeRejection(b).status();
       }},
  };

  constexpr int kMutationsPerFrame = 64;
  for (const FuzzTarget& target : targets) {
    SCOPED_TRACE(target.name);
    for (int round = 0; round < kMutationsPerFrame; ++round) {
      auto mutated = target.frame;
      // 1-4 random positions, each XORed with a random nonzero byte.
      const std::size_t hits = 1 + rng.Next() % 4;
      for (std::size_t h = 0; h < hits; ++h) {
        const std::size_t pos = rng.Next() % mutated.size();
        mutated[pos] ^= static_cast<std::uint8_t>(rng.Next() % 255 + 1);
      }
      // Neither the type peek nor the full decode may crash, hang, or
      // read out of bounds; an error must carry a message.
      const auto peeked = fleetwire::PeekType(mutated);
      const Status decoded = target.decode(mutated);
      if (!decoded.ok()) {
        EXPECT_FALSE(decoded.message().empty())
            << "round " << round << " seed " << seed;
      }
      (void)peeked;
    }
  }
}

// -- ServeFrame --------------------------------------------------------------

TEST(StatisticsFleetTest, ServeFrameAnswersEstimateBatches) {
  Table table = SmallTable();
  const auto columns = Columns(4);
  StatisticsFleet fleet({.shards = 3, .shard = ShardOptions()});
  ASSERT_TRUE(fleet.BuildAll(columns, table).ok());

  fleetwire::EstimateBatchRequestFrame request;
  request.requests = MixedBatch(columns, table, 3);
  const auto reply_bytes =
      fleet.ServeFrame(fleetwire::Encode(request), table);
  ASSERT_TRUE(reply_bytes.ok()) << reply_bytes.status();
  const auto reply = fleetwire::DecodeEstimateBatchResponse(*reply_bytes);
  ASSERT_TRUE(reply.ok());

  BatchEstimateResult direct;
  ASSERT_TRUE(fleet.EstimateBatch(table, request.requests, &direct).ok());
  EXPECT_EQ(reply->estimates, direct.estimates);
  EXPECT_GE(fleet.fleet_metrics().counter(
                metrics::Counter::kWireFramesServed),
            1u);
}

TEST(StatisticsFleetTest, ServeFrameBuildControlOps) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 2, .shard = ShardOptions()});

  // EnsureFresh over the wire builds the column.
  auto reply = fleet.ServeFrame(
      fleetwire::Encode(fleetwire::BuildControlRequestFrame{
          fleetwire::BuildOp::kEnsureFresh, "t.w", 0}),
      table);
  ASSERT_TRUE(reply.ok());
  auto outcome = fleetwire::DecodeBuildControlResponse(*reply);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->code, StatusCode::kOk);
  EXPECT_TRUE(fleet.Has("t.w"));

  // RecordModifications over the wire moves the staleness needle.
  reply = fleet.ServeFrame(
      fleetwire::Encode(fleetwire::BuildControlRequestFrame{
          fleetwire::BuildOp::kRecordModifications, "t.w",
          table.tuple_count()}),
      table);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(fleet.Health("t.w").health, ColumnHealth::kStale);

  // Drop over the wire; dropping again reports kNotFound *inside* the
  // response frame, not as a transport error.
  reply = fleet.ServeFrame(
      fleetwire::Encode(fleetwire::BuildControlRequestFrame{
          fleetwire::BuildOp::kDrop, "t.w", 0}),
      table);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(fleet.Has("t.w"));
  reply = fleet.ServeFrame(
      fleetwire::Encode(fleetwire::BuildControlRequestFrame{
          fleetwire::BuildOp::kDrop, "t.w", 0}),
      table);
  ASSERT_TRUE(reply.ok());
  outcome = fleetwire::DecodeBuildControlResponse(*reply);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->code, StatusCode::kNotFound);
}

TEST(StatisticsFleetTest, ServeFrameRejectsGarbageAndResponseFrames) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 2, .shard = ShardOptions()});
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_FALSE(fleet.ServeFrame(garbage, table).ok());
  EXPECT_FALSE(
      fleet
          .ServeFrame(fleetwire::Encode(
                          fleetwire::EstimateBatchResponseFrame{{1.0}}),
                      table)
          .ok());
  EXPECT_GE(fleet.fleet_metrics().counter(
                metrics::Counter::kWireFrameErrors),
            2u);

  // Metrics over the wire still works after errors.
  const auto reply =
      fleet.ServeFrame(fleetwire::EncodeMetricsRequest(), table);
  ASSERT_TRUE(reply.ok());
  const auto metrics_frame = fleetwire::DecodeMetricsResponse(*reply);
  ASSERT_TRUE(metrics_frame.ok());
  EXPECT_NE(metrics_frame->json.find("\"wire_frame_errors\""),
            std::string::npos);
}

// -- Metrics plane -----------------------------------------------------------

TEST(MetricsPlaneTest, BucketsCountersAndJsonShape) {
  metrics::MetricsPlane plane;
  EXPECT_EQ(metrics::MetricsPlane::BucketOf(0), 0u);
  EXPECT_EQ(metrics::MetricsPlane::BucketOf(1), 0u);
  EXPECT_EQ(metrics::MetricsPlane::BucketOf(2), 1u);
  EXPECT_EQ(metrics::MetricsPlane::BucketOf(3), 2u);
  EXPECT_EQ(metrics::MetricsPlane::BucketOf(1'000'000'000),
            metrics::kHistBuckets - 1);

  plane.Increment(metrics::Counter::kEstimateQueries, 5);
  plane.GaugeSet(metrics::Gauge::kQueueDepth, 7);
  plane.Observe(metrics::Hist::kEstimateBatchSize, 3);
  plane.Observe(metrics::Hist::kEstimateBatchSize, 100);
  EXPECT_EQ(plane.counter(metrics::Counter::kEstimateQueries), 5u);
  EXPECT_EQ(plane.gauge(metrics::Gauge::kQueueDepth), 7u);
  EXPECT_EQ(plane.hist_count(metrics::Hist::kEstimateBatchSize), 2u);
  EXPECT_EQ(plane.hist_sum(metrics::Hist::kEstimateBatchSize), 103u);

  const std::string json = plane.ToJson();
  EXPECT_NE(json.find("\"estimate_queries\":5"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":7"), std::string::npos);
  EXPECT_NE(json.find("\"estimate_batch_size\":{\"count\":2,\"sum\":103"),
            std::string::npos);
}

TEST(MetricsPlaneTest, ConcurrentUpdatesAreLockFreeAndLossless) {
  metrics::MetricsPlane plane;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&plane]() {
      for (int i = 0; i < kPerThread; ++i) {
        plane.Increment(metrics::Counter::kEstimateQueries);
        plane.Increment(metrics::Counter::kDmlRecords,
                        static_cast<std::uint64_t>(i % 5));
        plane.Observe(metrics::Hist::kEstimateBatchSize,
                      static_cast<std::uint64_t>(i % 64));
        plane.Observe(metrics::Hist::kBuildLatencyMicros,
                      std::uint64_t{1} << (i % 24));
        plane.GaugeAdd(metrics::Gauge::kQueueDepth, 1);
        plane.GaugeAdd(metrics::Gauge::kQueueDepth, -1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // What the writes add up to, bucket by bucket.
  std::uint64_t dml = 0;
  std::uint64_t batch_sum = 0;
  std::uint64_t latency_sum = 0;
  std::vector<std::uint64_t> batch_buckets(metrics::kHistBuckets, 0);
  std::vector<std::uint64_t> latency_buckets(metrics::kHistBuckets, 0);
  for (int i = 0; i < kPerThread; ++i) {
    const auto size = static_cast<std::uint64_t>(i % 64);
    const std::uint64_t latency = std::uint64_t{1} << (i % 24);
    dml += static_cast<std::uint64_t>(i % 5) * kThreads;
    batch_sum += size * kThreads;
    latency_sum += latency * kThreads;
    batch_buckets[metrics::MetricsPlane::BucketOf(size)] += kThreads;
    latency_buckets[metrics::MetricsPlane::BucketOf(latency)] += kThreads;
  }
  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(plane.counter(metrics::Counter::kEstimateQueries), total);
  EXPECT_EQ(plane.counter(metrics::Counter::kDmlRecords), dml);
  EXPECT_EQ(plane.hist_count(metrics::Hist::kEstimateBatchSize), total);
  EXPECT_EQ(plane.hist_sum(metrics::Hist::kEstimateBatchSize), batch_sum);
  EXPECT_EQ(plane.hist_count(metrics::Hist::kBuildLatencyMicros), total);
  EXPECT_EQ(plane.hist_sum(metrics::Hist::kBuildLatencyMicros), latency_sum);
  for (std::size_t b = 0; b < metrics::kHistBuckets; ++b) {
    EXPECT_EQ(plane.hist_bucket(metrics::Hist::kEstimateBatchSize, b),
              batch_buckets[b])
        << "bucket " << b;
    EXPECT_EQ(plane.hist_bucket(metrics::Hist::kBuildLatencyMicros, b),
              latency_buckets[b])
        << "bucket " << b;
  }
  EXPECT_GT(latency_buckets[metrics::kHistBuckets - 1], 0u);  // +inf used
  EXPECT_EQ(plane.gauge(metrics::Gauge::kQueueDepth), 0u);
}

// Counters and histograms are striped per thread and summed on read: the
// same writes spread over 8 threads (8 stripes) and made from one thread
// (one stripe) export the same JSON.
TEST(MetricsPlaneTest, StripedWritesExportWhatOneThreadWrites) {
  constexpr int kThreads = 8;
  const auto write = [](metrics::MetricsPlane& plane, int t) {
    for (int i = 0; i < 500 + 37 * t; ++i) {
      const auto c = static_cast<std::size_t>((i + t) %
                                              static_cast<int>(
                                                  metrics::Counter::kCount));
      plane.Increment(static_cast<metrics::Counter>(c),
                      static_cast<std::uint64_t>(1 + (i % 3)));
      const auto h = static_cast<std::size_t>(
          (i * 3 + t) % static_cast<int>(metrics::Hist::kCount));
      plane.Observe(static_cast<metrics::Hist>(h),
                    (std::uint64_t{1} << ((i + t) % 22)) + i);
      plane.GaugeAdd(metrics::Gauge::kServerQueueDepth, t % 2 == 0 ? 2 : -1);
    }
  };
  metrics::MetricsPlane striped;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&striped, &write, t]() { write(striped, t); });
  }
  for (auto& thread : threads) thread.join();
  metrics::MetricsPlane single;
  for (int t = 0; t < kThreads; ++t) write(single, t);
  EXPECT_EQ(striped.ToJson(), single.ToJson());
  EXPECT_NE(single.ToJson().find("\"le\":\"inf\""), std::string::npos);
}

TEST(StatisticsFleetTest, MetricsJsonCoversFleetAndEveryShard) {
  Table table = SmallTable();
  StatisticsFleet fleet({.shards = 3, .shard = ShardOptions()});
  const auto columns = Columns(6);
  ASSERT_TRUE(fleet.BuildAll(columns, table).ok());
  BatchEstimateResult result;
  ASSERT_TRUE(
      fleet.EstimateBatch(table, MixedBatch(columns, table, 2), &result)
          .ok());
  const std::string json = fleet.MetricsJson();
  EXPECT_NE(json.find("\"fleet\":"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
  EXPECT_NE(json.find("\"stale\":"), std::string::npos);
  // Shard planes saw the builds the sweep fanned out.
  std::uint64_t builds = 0;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    builds +=
        fleet.shard(s).metrics().counter(metrics::Counter::kBuildsCompleted);
  }
  EXPECT_EQ(builds, columns.size());
}

// -- Chaos: fleet under injected storage faults ------------------------------

TEST(StatisticsFleetTest, ChaosBuildStormStaysServable) {
  std::uint64_t seed = 0x5EED2026;
  if (const char* env = std::getenv("EQUIHIST_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("EQUIHIST_CHAOS_SEED=" + std::to_string(seed));

  Table table = SmallTable(40000, seed ^ 0x9E3779B9);
  FaultSpec spec;
  spec.transient_probability = 0.15;
  spec.lost_probability = 0.05;
  spec.corrupt_probability = 0.05;
  spec.seed = seed;
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);

  auto shard_options = ShardOptions();
  shard_options.seed = seed;
  StatisticsFleet fleet({.shards = 3,
                         .shard = shard_options,
                         .scheduler = {.max_inflight = 2, .threads = 2}});
  const auto columns = Columns(9);
  for (int wave = 0; wave < 3; ++wave) {
    for (const std::string& column : columns) {
      fleet.RecordModifications(column, 1000);
      fleet.ScheduleBuild("t", column, table);
    }
  }
  fleet.DrainBuilds();

  // Whatever storage did: typed errors only, and every column servable
  // (snapshot, stale snapshot, or the uniform fallback).
  for (const auto& [key, status] : fleet.scheduler().TakeFailures()) {
    EXPECT_TRUE(status.code() == StatusCode::kUnavailable ||
                status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kResourceExhausted)
        << key << ": " << status;
  }
  for (const std::string& column : columns) {
    const auto estimate = fleet.EstimateRange(
        column, table,
        {.lo = 0, .hi = static_cast<Value>(table.tuple_count())});
    ASSERT_TRUE(estimate.ok()) << column;
    EXPECT_GE(*estimate, 0.0);
  }
}

}  // namespace
}  // namespace equihist
