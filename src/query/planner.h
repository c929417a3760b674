#ifndef EQUIHIST_QUERY_PLANNER_H_
#define EQUIHIST_QUERY_PLANNER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "data/workload.h"
#include "query/index.h"
#include "stats/column_statistics.h"
#include "stats/statistics_fleet.h"
#include "stats/statistics_manager.h"
#include "storage/table.h"

namespace equihist {

// The decision the paper's statistics exist to inform: full scan or index
// range scan? ("The ability of an optimizer to make a good decision is
// critically influenced by the availability of statistical information" —
// Section 1.) The planner costs both access paths from ColumnStatistics
// and a classical I/O model; the executor then runs the chosen plan and
// reports the true I/O, so statistics quality translates directly into
// measured plan quality (bench_plan_quality).

enum class AccessPath {
  kFullScan,
  kIndexRangeScan,
};

std::string_view AccessPathToString(AccessPath path);

struct PlanChoice {
  AccessPath path = AccessPath::kFullScan;
  double estimated_rows = 0.0;
  double full_scan_cost = 0.0;   // weighted page cost
  double index_scan_cost = 0.0;  // weighted page cost
};

// I/O cost weights. A full scan reads pages sequentially; index fetches
// are random reads, classically weighted ~4x (PostgreSQL's
// random_page_cost default).
struct CostModel {
  double sequential_page_cost = 1.0;
  double random_page_cost = 4.0;
};

// Yao's formula: expected number of distinct pages touched when `matches`
// tuples are drawn (without replacement) from a table of `pages` pages
// holding `tuples_per_page` tuples each. The classical cost-model
// ingredient for unclustered index scans.
double YaoPagesTouched(std::uint64_t pages, std::uint32_t tuples_per_page,
                       double matches);

// Costs both access paths for "lo < X <= hi" and picks the cheaper one,
// through any histogram backend (a ColumnStatistics passes *stats.model).
// The index cost is (leaves(matches) + Yao(pages, b, matches)) at the
// random-read rate; the full scan cost is the page count at the
// sequential rate.
PlanChoice ChooseAccessPath(const HistogramModel& model,
                            const RangeQuery& query,
                            std::uint64_t table_pages,
                            std::uint32_t tuples_per_page,
                            std::uint32_t index_entries_per_leaf = 512,
                            const CostModel& cost_model = CostModel{});

// Multi-column batch plan choice: the whole predicate list estimates in
// ONE EstimateBatch call through the lock-free snapshot-cache fast path,
// then costs per predicate exactly as ChooseAccessPath does. Errors (an
// unbuildable column) propagate from the batch estimate. Takes any shard
// — StatisticsManager is another name for one. Both batch overloads share
// one costing loop.
Result<std::vector<PlanChoice>> ChooseAccessPaths(
    StatisticsShard& shard, const Table& table,
    std::span<const BatchEstimateRequest> requests,
    std::uint32_t tuples_per_page, std::uint32_t index_entries_per_leaf = 512,
    const CostModel& cost_model = CostModel{});

// Fleet variant: the predicate list goes through the fleet's EstimateBatch
// (the shard's batch loop, each column pinned through its owning shard),
// bitwise the single-shard overload's choices.
Result<std::vector<PlanChoice>> ChooseAccessPaths(
    StatisticsFleet& fleet, const Table& table,
    std::span<const BatchEstimateRequest> requests,
    std::uint32_t tuples_per_page, std::uint32_t index_entries_per_leaf = 512,
    const CostModel& cost_model = CostModel{});

// Batch execution of a range-query list over one chosen access path.
struct BatchExecutionResult {
  AccessPath path = AccessPath::kFullScan;
  std::vector<std::uint64_t> rows;  // rows[i] answers queries[i]
  IoStats io{};                     // the batch's total I/O bill
};

// Executes every query of the batch with the chosen access path and
// returns the true row counts and the combined I/O bill. The full-scan arm
// reads the table ONCE for the whole batch through FullScanChecked (its
// page reads concurrent with a pool; row counts and charged I/O are the
// same at any thread count). A batch of one counts its matches in the
// unsorted scan; a larger batch sorts the scan once and answers each
// "lo < X <= hi" with two binary searches, so q queries cost one scan
// instead of q. The index arm runs one RangeScanChecked per query.
// Transient faults retry per `policy`; a permanently unreadable page fails
// the whole batch with that page's kDataLoss/kUnavailable status.
Result<BatchExecutionResult> ExecutePlansChecked(
    const Table& table, const OrderedIndex& index,
    std::span<const RangeQuery> queries, AccessPath path,
    ThreadPool* pool = nullptr, const RetryPolicy& policy = {});

}  // namespace equihist

#endif  // EQUIHIST_QUERY_PLANNER_H_
