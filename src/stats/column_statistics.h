#ifndef EQUIHIST_STATS_COLUMN_STATISTICS_H_
#define EQUIHIST_STATS_COLUMN_STATISTICS_H_

#include <cstdint>
#include <string>

#include <memory>
#include <span>

#include "common/result.h"
#include "core/compiled_estimator.h"
#include "core/compressed_histogram.h"
#include "core/cvb.h"
#include "core/histogram.h"
#include "data/workload.h"
#include "stats/histogram_model.h"
#include "storage/io_stats.h"
#include "storage/table.h"

namespace equihist {

// The statistics object a database persists per column — exactly the
// bundle the paper's SQL Server prototype collected (Section 7.1): a
// histogram, the density, and a distinct-value estimate, plus the
// provenance needed to reason about freshness and cost.
//
// The histogram is held behind the backend-polymorphic HistogramModel
// interface: equi-height by default (the paper's structure, served through
// the compiled O(log k) read path), but any registered backend — the
// equi-width baseline, Section 5's compressed histograms, a GMP snapshot,
// or an externally registered family — plugs in without changing any
// consumer.
struct ColumnStatistics {
  // The servable histogram; null only for a partially hand-assembled
  // object (estimation then returns 0). Shared and immutable, so copies
  // and snapshot handouts reuse one model (including its compiled read
  // path).
  HistogramModelPtr model{};
  double density = 0.0;
  double distinct_estimate = 0.0;
  std::uint64_t row_count = 0;
  // Values with multiplicity above one ideal bucket (n/k), pinned with
  // their (estimated) counts — the compressed-histogram singletons of
  // Section 5, sorted by value.
  std::vector<CompressedHistogram::Singleton> heavy_hitters{};
  // How the statistics were built and what they cost.
  bool from_full_scan = false;
  std::uint64_t sample_size = 0;  // tuples examined
  IoStats build_cost{};

  // Installs `histogram` as the model, wrapped in the equi-height adapter
  // (which compiles the O(log k) read path). The constructor used by the
  // Build* factories and by hand-assembled test statistics.
  void SetEquiHeight(Histogram histogram);

  // -- Typed access for equi-height-only consumers --------------------------
  //
  // CVB cross-validation, bucket diagnostics and the page-budget check
  // need the concrete equi-height structure. equi_height()/compiled()
  // return null when the model is absent or a different family;
  // histogram() is the assertive form for call sites that know the family
  // (aborts otherwise).
  const Histogram* equi_height() const;
  const CompiledEstimator* compiled() const;
  const Histogram& histogram() const;

  // -- Optimizer estimation surface ----------------------------------------

  // Estimated output size of "lo < X <= hi" (Section 2.2 strategy),
  // through the model; 0 when no model is set.
  double EstimateRangeCount(const RangeQuery& query) const;

  // out[i] = EstimateRangeCount(queries[i]) for every i, one query at a
  // time. Requires out.size() >= queries.size().
  void EstimateRangeCounts(std::span<const RangeQuery> queries,
                           std::span<double> out) const;

  // Estimated output size of "X = v". Heavy values are pinned exactly (the
  // compressed-histogram singleton list collected at build time);
  // infrequent values fall back to the density-based average — density*n
  // is the expected count of the value held by a random tuple, SQL
  // Server's classical use of the statistic.
  double EstimateEqualityCount(Value value) const;

  // Estimated reduction n -> d for duplicate elimination (Section 6.2's
  // motivating use of d/n rather than absolute d).
  double EstimateDistinctFraction() const;

  std::string ToString() const;
};

// Builds exact statistics with a full scan and sort: the paper's exact
// baseline, whose cost the sampling path avoids (Section 7). Transient
// read faults are retried per `retry`. The I/O bill is recorded. With a
// pool, the scan and the sort both run parallel; the result is identical
// for any thread count.
Result<ColumnStatistics> BuildStatisticsFullScan(
    const Table& table, std::uint64_t buckets, ThreadPool* pool = nullptr,
    const RetryPolicy& retry = {});

// Builds approximate statistics with the adaptive CVB algorithm plus the
// paper's distinct-value estimator over the accumulated sample. `pool`
// (or options.threads when pool is null) drives the parallel stages.
Result<ColumnStatistics> BuildStatisticsSampled(const Table& table,
                                                const CvbOptions& options,
                                                ThreadPool* pool = nullptr);

// Build parameters for the backend-generic path below.
struct BackendBuildOptions {
  HistogramBackendId backend = HistogramBackendId::kEquiHeight;
  std::uint64_t buckets = 200;
  double f = 0.1;       // target relative max error (CVB)
  double gamma = 0.01;  // failure probability
  std::uint64_t seed = 1;
  // Fault tolerance (DESIGN.md §11): transient-fault retry for every page
  // read of the build's CVB run, and CVB's skip budget: more than
  // `max_skipped_blocks` permanently unreadable blocks fail the build.
  RetryPolicy retry{};
  std::uint64_t max_skipped_blocks = 64;
  // Backing-sample size for the incremental-equi-depth backend (DESIGN.md
  // §15): the reservoir keeps a uniform subset of this many values of CVB's
  // final sample, or all of a smaller sample. The effective capacity is
  // never below `buckets`. Ignored by every other backend.
  std::uint64_t reservoir_capacity = 4096;
};

// Builds statistics whose histogram comes from any registered backend.
// Every build runs CVB once and samples nothing else, and every backend
// takes density, distinct estimate, heavy hitters and the bill from that
// run. The equi-height backend is BuildStatisticsSampled (bit-identical to
// calling it directly). The incremental backend publishes CVB's histogram
// too and seeds its reservoir from CVB's sample. Every other backend goes
// through its registered builder with that sample, sorted. A decode-only
// backend (no builder: ids 3 and 4) fails with InvalidArgument before any
// page is read.
Result<ColumnStatistics> BuildStatisticsWithBackend(
    const Table& table, const BackendBuildOptions& options,
    ThreadPool* pool = nullptr);

// Assembles incremental-equi-depth statistics from a maintained in-memory
// state — the current split/merge histogram plus its backing reservoir —
// with zero storage I/O (DESIGN.md §15). `histogram` supplies the bucket
// boundaries and the live row count; density, distinct estimate and heavy
// hitters are re-derived from the reservoir sample. This is the publish
// step of StatisticsManager's O(Δ) refresh path. Fails
// (FailedPrecondition) on an empty reservoir.
class BackingReservoir;
Result<ColumnStatistics> MakeIncrementalStatistics(
    const Histogram& histogram, BackingReservoir reservoir);

}  // namespace equihist

#endif  // EQUIHIST_STATS_COLUMN_STATISTICS_H_
