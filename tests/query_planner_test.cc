#include "query/planner.h"

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "data/value_set.h"
#include "stats/column_statistics.h"
#include "storage/fault_injection.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};  // 128 tuples per page

struct Fixture {
  Fixture()
      : freq(MakeAllDistinct(100000).value()),
        truth(ValueSet::FromFrequencies(freq)),
        table(Table::Create(freq, kPage, {.kind = LayoutKind::kRandom,
                                          .seed = 5})
                  .value()),
        index(OrderedIndex::Build(table).value()),
        stats(BuildStatisticsFullScan(table, 100).value()) {}

  FrequencyVector freq;
  ValueSet truth;
  Table table;
  OrderedIndex index;
  ColumnStatistics stats;
};

// Runs `query` alone: the plan executor's batch of one.
Result<BatchExecutionResult> ExecuteOne(const Fixture& fx,
                                        const RangeQuery& query,
                                        AccessPath path) {
  return ExecutePlansChecked(fx.table, fx.index,
                             std::span<const RangeQuery>(&query, 1), path);
}

TEST(YaoTest, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(YaoPagesTouched(100, 10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(YaoPagesTouched(0, 10, 5.0), 0.0);
  // All tuples -> all pages.
  EXPECT_NEAR(YaoPagesTouched(100, 10, 1000.0), 100.0, 1e-9);
  // One tuple -> ~one page.
  EXPECT_NEAR(YaoPagesTouched(100, 10, 1.0), 1.0, 0.05);
}

TEST(YaoTest, MonotoneInMatches) {
  double prev = 0.0;
  for (double m = 0.0; m <= 1000.0; m += 50.0) {
    const double pages = YaoPagesTouched(100, 10, m);
    EXPECT_GE(pages, prev);
    EXPECT_LE(pages, 100.0 + 1e-9);
    prev = pages;
  }
}

TEST(PlannerTest, NarrowQueryChoosesIndex) {
  Fixture fx;
  const auto choice = ChooseAccessPath(*fx.stats.model, {100, 200},
                                       fx.table.page_count(),
                                       fx.table.tuples_per_page());
  EXPECT_EQ(choice.path, AccessPath::kIndexRangeScan);
  EXPECT_LT(choice.index_scan_cost, choice.full_scan_cost);
  EXPECT_NEAR(choice.estimated_rows, 100.0, 10.0);
}

TEST(PlannerTest, WideQueryChoosesFullScan) {
  Fixture fx;
  const auto choice = ChooseAccessPath(*fx.stats.model, {0, 90000},
                                       fx.table.page_count(),
                                       fx.table.tuples_per_page());
  EXPECT_EQ(choice.path, AccessPath::kFullScan);
  EXPECT_GE(choice.index_scan_cost, choice.full_scan_cost);
}

TEST(PlannerTest, ChoiceMatchesTrueOptimumAcrossSelectivities) {
  // With exact statistics the planner's choice must agree with the
  // measured cheaper plan (same cost weights applied to the measured page
  // reads) except in a narrow indifference band around the crossover.
  Fixture fx;
  const CostModel cost_model;
  int disagreements = 0;
  int decided = 0;
  for (std::uint64_t width : {100u, 500u, 1000u, 2000u, 5000u, 10000u,
                              20000u, 50000u, 90000u}) {
    const RangeQuery q{1000, static_cast<Value>(1000 + width)};
    const auto choice =
        ChooseAccessPath(*fx.stats.model, q, fx.table.page_count(),
                         fx.table.tuples_per_page());
    const auto via_index = ExecuteOne(fx, q, AccessPath::kIndexRangeScan);
    const auto via_scan = ExecuteOne(fx, q, AccessPath::kFullScan);
    ASSERT_TRUE(via_index.ok() && via_scan.ok());
    EXPECT_EQ(via_index->rows, via_scan->rows);
    const double index_cost = static_cast<double>(via_index->io.pages_read) *
                              cost_model.random_page_cost;
    const double scan_cost = static_cast<double>(via_scan->io.pages_read) *
                             cost_model.sequential_page_cost;
    const AccessPath truly_cheaper = (index_cost < scan_cost)
                                         ? AccessPath::kIndexRangeScan
                                         : AccessPath::kFullScan;
    // Skip queries within 25% of the crossover: either answer is fine.
    const double ratio = index_cost / scan_cost;
    if (ratio > 0.8 && ratio < 1.25) continue;
    ++decided;
    if (choice.path != truly_cheaper) ++disagreements;
  }
  EXPECT_GT(decided, 4);
  EXPECT_EQ(disagreements, 0);
}

TEST(PlannerTest, ExecuteFullScanCountsExactly) {
  Fixture fx;
  const RangeQuery q{500, 700};
  const auto result = ExecuteOne(fx, q, AccessPath::kFullScan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows, std::vector<std::uint64_t>{
                              fx.truth.CountInRange(q.lo, q.hi)});
  EXPECT_EQ(result->io.pages_read, fx.table.page_count());
}

TEST(PlannerTest, ExecutePlanCheckedMatchesExecutePlanWhenFaultFree) {
  // On fault-free storage a batch of one answers both arms with the plain
  // count over the table's values; the full scan bills every page once and
  // the index arm bills what its range scan reads.
  Fixture fx;
  const RangeQuery q{500, 700};
  std::uint64_t rows = 0;
  for (const Value v : fx.truth.sorted_values()) {
    if (q.lo < v && v <= q.hi) ++rows;
  }
  IoStats index_io;
  ASSERT_TRUE(fx.index.RangeScanChecked(fx.table, q, &index_io).ok());
  const auto scan = ExecuteOne(fx, q, AccessPath::kFullScan);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->rows, std::vector<std::uint64_t>{rows});
  EXPECT_EQ(scan->io.pages_read, fx.table.page_count());
  const auto index = ExecuteOne(fx, q, AccessPath::kIndexRangeScan);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->rows, std::vector<std::uint64_t>{rows});
  EXPECT_EQ(index->io.pages_read, index_io.pages_read);
  EXPECT_EQ(index->io.tuples_read, index_io.tuples_read);
}

TEST(PlannerTest, ExecutePlanCheckedPropagatesLostPageOnBothArms) {
  // A lost page fails a batch of one and a batch of many alike, on both
  // arms, with the page's kDataLoss.
  Fixture fx;
  FaultSpec spec;
  spec.lost_pages = {0};
  FaultInjector injector(spec);
  fx.table.set_fault_injector(&injector);
  const RangeQuery everything{-5, 1000000};
  const std::vector<RangeQuery> many = {{100, 200}, everything, {0, 90000}};
  for (const AccessPath path :
       {AccessPath::kIndexRangeScan, AccessPath::kFullScan}) {
    const auto one = ExecuteOne(fx, everything, path);
    ASSERT_FALSE(one.ok()) << AccessPathToString(path);
    EXPECT_EQ(one.status().code(), StatusCode::kDataLoss);
    const auto batch = ExecutePlansChecked(fx.table, fx.index, many, path);
    ASSERT_FALSE(batch.ok()) << AccessPathToString(path);
    EXPECT_EQ(batch.status().code(), StatusCode::kDataLoss);
  }
}

TEST(PlannerTest, ManagerBatchPlansWholePredicateList) {
  // Multi-column planning goes through StatisticsManager::EstimateBatch:
  // one call costs the whole predicate list, and the decisions land where
  // the per-query planner would put them (narrow -> index, wide -> scan).
  Fixture fx;
  StatisticsManager manager({.buckets = 100, .f = 0.1});
  std::vector<BatchEstimateRequest> requests = {
      {"x", {100, 200}},    // narrow
      {"x", {0, 90000}},    // wide
      {"x", {5000, 5100}},  // narrow
  };
  const auto choices =
      ChooseAccessPaths(manager, fx.table, requests,
                        fx.table.tuples_per_page());
  ASSERT_TRUE(choices.ok());
  ASSERT_EQ(choices->size(), requests.size());
  EXPECT_EQ((*choices)[0].path, AccessPath::kIndexRangeScan);
  EXPECT_EQ((*choices)[1].path, AccessPath::kFullScan);
  EXPECT_EQ((*choices)[2].path, AccessPath::kIndexRangeScan);
}

TEST(PlannerTest, BatchFullScanAnswersAllQueriesWithOneScan) {
  // The batch full-scan arm reads the table exactly once and still
  // returns every query's true row count — including reversed and empty
  // ranges, which count zero rows.
  Fixture fx;
  const std::vector<RangeQuery> queries = {
      {500, 700}, {0, 90000}, {99999, 200000}, {700, 500}, {42, 42}};
  const auto batch = ExecutePlansChecked(fx.table, fx.index, queries,
                                         AccessPath::kFullScan);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->rows.size(), queries.size());
  EXPECT_EQ(batch->io.pages_read, fx.table.page_count());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch->rows[i],
              fx.truth.CountInRange(queries[i].lo, queries[i].hi))
        << "query " << i;
    const auto single = ExecuteOne(fx, queries[i], AccessPath::kFullScan);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->rows, std::vector<std::uint64_t>{batch->rows[i]});
  }
}

TEST(PlannerTest, BatchIndexArmMatchesPerQueryScans) {
  Fixture fx;
  const std::vector<RangeQuery> queries = {{100, 200}, {5000, 5400},
                                           {800, 1600}};
  const auto batch = ExecutePlansChecked(fx.table, fx.index, queries,
                                         AccessPath::kIndexRangeScan);
  ASSERT_TRUE(batch.ok());
  std::uint64_t per_query_pages = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto single =
        ExecuteOne(fx, queries[i], AccessPath::kIndexRangeScan);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->rows, std::vector<std::uint64_t>{batch->rows[i]})
        << "query " << i;
    per_query_pages += single->io.pages_read;
  }
  // The batch I/O bill is the sum of the individual scans — no hidden
  // discount on the index arm.
  EXPECT_EQ(batch->io.pages_read, per_query_pages);
}

TEST(PlannerTest, PathNames) {
  EXPECT_EQ(AccessPathToString(AccessPath::kFullScan), "full-scan");
  EXPECT_EQ(AccessPathToString(AccessPath::kIndexRangeScan),
            "index-range-scan");
}

}  // namespace
}  // namespace equihist
