#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/range_estimator.h"
#include "storage/scan.h"

namespace equihist {

std::string_view AccessPathToString(AccessPath path) {
  switch (path) {
    case AccessPath::kFullScan:
      return "full-scan";
    case AccessPath::kIndexRangeScan:
      return "index-range-scan";
  }
  return "unknown";
}

double YaoPagesTouched(std::uint64_t pages, std::uint32_t tuples_per_page,
                       double matches) {
  if (pages == 0 || tuples_per_page == 0 || matches <= 0.0) return 0.0;
  const double n = static_cast<double>(pages) *
                   static_cast<double>(tuples_per_page);
  const double m = std::min(matches, n);
  // Yao's approximation: P * (1 - (1 - m/n)^b). Exact for Bernoulli
  // placement; within a fraction of a page of the hypergeometric form for
  // the sizes a cost model cares about.
  const double miss = std::pow(1.0 - m / n,
                               static_cast<double>(tuples_per_page));
  return static_cast<double>(pages) * (1.0 - miss);
}

namespace {

// The shared cost comparison, fed by whichever estimation surface the
// caller holds.
PlanChoice ChooseFromEstimate(double estimated_rows,
                              std::uint64_t table_pages,
                              std::uint32_t tuples_per_page,
                              std::uint32_t index_entries_per_leaf,
                              const CostModel& cost_model) {
  PlanChoice choice;
  choice.estimated_rows = estimated_rows;
  choice.full_scan_cost =
      static_cast<double>(table_pages) * cost_model.sequential_page_cost;
  const double leaf_cost =
      std::ceil(choice.estimated_rows /
                static_cast<double>(index_entries_per_leaf));
  choice.index_scan_cost =
      (leaf_cost +
       YaoPagesTouched(table_pages, tuples_per_page, choice.estimated_rows)) *
      cost_model.random_page_cost;
  choice.path = (choice.index_scan_cost < choice.full_scan_cost)
                    ? AccessPath::kIndexRangeScan
                    : AccessPath::kFullScan;
  return choice;
}

// The one costing loop of the batch overloads: one choice per estimate.
std::vector<PlanChoice> ChooseFromEstimates(
    std::span<const double> estimates, std::uint64_t table_pages,
    std::uint32_t tuples_per_page, std::uint32_t index_entries_per_leaf,
    const CostModel& cost_model) {
  std::vector<PlanChoice> choices;
  choices.reserve(estimates.size());
  for (const double estimate : estimates) {
    choices.push_back(ChooseFromEstimate(estimate, table_pages,
                                         tuples_per_page,
                                         index_entries_per_leaf, cost_model));
  }
  return choices;
}

}  // namespace

PlanChoice ChooseAccessPath(const HistogramModel& model,
                            const RangeQuery& query,
                            std::uint64_t table_pages,
                            std::uint32_t tuples_per_page,
                            std::uint32_t index_entries_per_leaf,
                            const CostModel& cost_model) {
  return ChooseFromEstimate(model.EstimateRangeCount(query), table_pages,
                            tuples_per_page, index_entries_per_leaf,
                            cost_model);
}

Result<std::vector<PlanChoice>> ChooseAccessPaths(
    StatisticsShard& shard, const Table& table,
    std::span<const BatchEstimateRequest> requests,
    std::uint32_t tuples_per_page, std::uint32_t index_entries_per_leaf,
    const CostModel& cost_model) {
  BatchEstimateResult estimates;
  EQUIHIST_RETURN_IF_ERROR(shard.EstimateBatch(table, requests, &estimates));
  return ChooseFromEstimates(estimates.estimates, table.page_count(),
                             tuples_per_page, index_entries_per_leaf,
                             cost_model);
}

Result<std::vector<PlanChoice>> ChooseAccessPaths(
    StatisticsFleet& fleet, const Table& table,
    std::span<const BatchEstimateRequest> requests,
    std::uint32_t tuples_per_page, std::uint32_t index_entries_per_leaf,
    const CostModel& cost_model) {
  BatchEstimateResult estimates;
  EQUIHIST_RETURN_IF_ERROR(fleet.EstimateBatch(table, requests, &estimates));
  return ChooseFromEstimates(estimates.estimates, table.page_count(),
                             tuples_per_page, index_entries_per_leaf,
                             cost_model);
}

Result<BatchExecutionResult> ExecutePlansChecked(
    const Table& table, const OrderedIndex& index,
    std::span<const RangeQuery> queries, AccessPath path, ThreadPool* pool,
    const RetryPolicy& policy) {
  BatchExecutionResult result;
  result.path = path;
  result.rows.assign(queries.size(), 0);
  if (queries.empty()) return result;
  if (path == AccessPath::kIndexRangeScan) {
    // One index descent per query; the I/O bill accumulates across the
    // batch just as q separate scans would have charged.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EQUIHIST_ASSIGN_OR_RETURN(
          result.rows[i],
          index.RangeScanChecked(table, queries[i], &result.io, policy));
    }
    return result;
  }
  // Full-scan arm: ONE scan through the shared storage primitive funds the
  // entire batch (parallel page reads with a pool, identical I/O bill
  // either way). A lone query counts matches in the unsorted scan output;
  // a genuine batch sorts the scan once and answers every "lo < X <= hi"
  // as a difference of two upper bounds — q queries cost one scan plus
  // q * O(log n) instead of q scans.
  EQUIHIST_ASSIGN_OR_RETURN(std::vector<Value> values,
                            FullScanChecked(table, &result.io, pool, policy));
  if (queries.size() == 1) {
    const RangeQuery& query = queries.front();
    std::uint64_t rows = 0;
    for (const Value v : values) {
      if (query.lo < v && v <= query.hi) ++rows;
    }
    result.rows[0] = rows;
    return result;
  }
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto begin =
        std::upper_bound(values.begin(), values.end(), queries[i].lo);
    const auto end =
        std::upper_bound(values.begin(), values.end(), queries[i].hi);
    // Reversed/empty ranges give end <= begin — zero rows, exactly like
    // the predicate lo < v && v <= hi.
    result.rows[i] =
        end > begin ? static_cast<std::uint64_t>(end - begin) : 0;
  }
  return result;
}

}  // namespace equihist
