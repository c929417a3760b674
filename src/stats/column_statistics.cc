#include "stats/column_statistics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/parallel_sort.h"
#include "common/string_util.h"
#include "core/density.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"
#include "distinct/estimators.h"
#include "sampling/reservoir.h"
#include "stats/histogram_backends.h"
#include "stats/incremental_backend.h"
#include "storage/scan.h"

namespace equihist {
namespace {

// Density, distinct estimate and heavy hitters of a column of n rows, from
// one pass over its sorted sample (SummarizeSample) or, when !sampled, its
// full scan. The distinct estimate is the paper's estimator for a sample
// and the exact count for a full scan.
Status SetSampleStatistics(std::span<const Value> sorted,
                           std::uint64_t buckets, std::uint64_t n,
                           bool sampled, ColumnStatistics& stats) {
  SampleStatistics summary = SummarizeSample(
      sorted, buckets,
      static_cast<double>(n) / static_cast<double>(sorted.size()));
  stats.density = summary.density;
  if (sampled) {
    EQUIHIST_ASSIGN_OR_RETURN(
        stats.distinct_estimate,
        PaperEstimator(sorted.size(), summary.distinct, summary.singletons,
                       n));
  } else {
    stats.distinct_estimate = static_cast<double>(summary.distinct);
  }
  stats.heavy_hitters = std::move(summary.heavy_hitters);
  return Status::OK();
}

// Everything but the model of a sampled build, from CVB's result: the
// density and heavy hitters of its final sample, the paper's distinct-value
// estimator over that sample's D and f_1, and the build's bill.
Result<ColumnStatistics> StatisticsFromCvb(CvbResult& result,
                                           std::uint64_t n) {
  EQUIHIST_ASSIGN_OR_RETURN(
      const double distinct,
      PaperEstimator(result.sample.size(), result.sample_distinct,
                     result.sample_singletons, n));
  ColumnStatistics stats;
  stats.density = result.density_estimate;
  stats.distinct_estimate = distinct;
  stats.row_count = n;
  stats.heavy_hitters = std::move(result.heavy_hitters);
  stats.from_full_scan = false;
  stats.sample_size = result.tuples_sampled;
  stats.build_cost = result.io;
  return stats;
}

}  // namespace

void ColumnStatistics::SetEquiHeight(Histogram histogram) {
  model = std::make_shared<EquiHeightModel>(std::move(histogram));
}

const Histogram* ColumnStatistics::equi_height() const {
  const auto* equi = dynamic_cast<const EquiHeightModel*>(model.get());
  return equi != nullptr ? &equi->histogram() : nullptr;
}

const CompiledEstimator* ColumnStatistics::compiled() const {
  const auto* equi = dynamic_cast<const EquiHeightModel*>(model.get());
  return equi != nullptr ? &equi->compiled() : nullptr;
}

const Histogram& ColumnStatistics::histogram() const {
  const Histogram* equi = equi_height();
  if (equi == nullptr) {
    // The assertive accessor exists for equi-height-only code paths; a
    // wrong-family call is a programming error, not a recoverable state.
    std::abort();
  }
  return *equi;
}

double ColumnStatistics::EstimateRangeCount(const RangeQuery& query) const {
  if (model == nullptr) return 0.0;
  return model->EstimateRangeCount(query);
}

void ColumnStatistics::EstimateRangeCounts(std::span<const RangeQuery> queries,
                                           std::span<double> out) const {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[i] = EstimateRangeCount(queries[i]);
  }
}

double ColumnStatistics::EstimateEqualityCount(Value value) const {
  // Frequent values are pinned exactly (the compressed-histogram singleton
  // list collected at build time).
  const auto it = std::lower_bound(
      heavy_hitters.begin(), heavy_hitters.end(), value,
      [](const CompressedHistogram::Singleton& s, Value v) {
        return s.value < v;
      });
  if (it != heavy_hitters.end() && it->value == value) {
    return static_cast<double>(it->count);
  }
  // Out-of-domain values match nothing.
  if (model != nullptr &&
      (value <= model->lower_fence() || value > model->upper_fence())) {
    return 0.0;
  }
  // Infrequent value: average multiplicity among the non-heavy values,
  // n_light / d_light — the density-style fallback an optimizer uses when
  // the histogram cannot resolve the value.
  double heavy_mass = 0.0;
  for (const auto& s : heavy_hitters) heavy_mass += static_cast<double>(s.count);
  const double light_mass =
      std::max(static_cast<double>(row_count) - heavy_mass, 0.0);
  const double light_distinct = std::max(
      distinct_estimate - static_cast<double>(heavy_hitters.size()), 1.0);
  return std::max(light_mass / light_distinct, 0.0);
}

double ColumnStatistics::EstimateDistinctFraction() const {
  if (row_count == 0) return 0.0;
  return distinct_estimate / static_cast<double>(row_count);
}

std::string ColumnStatistics::ToString() const {
  std::ostringstream os;
  os << "ColumnStatistics{rows=" << FormatWithThousands(row_count)
     << ", " << (model != nullptr ? model->Describe() : "no histogram")
     << ", density=" << FormatFixed(density, 6)
     << ", distinct~=" << FormatCount(distinct_estimate)
     << ", heavy=" << heavy_hitters.size()
     << ", built from " << (from_full_scan ? "full scan" : "sample")
     << " of " << FormatWithThousands(sample_size) << " tuples ("
     << FormatWithThousands(build_cost.pages_read) << " pages)}";
  return os.str();
}

Result<ColumnStatistics> BuildStatisticsFullScan(const Table& table,
                                                 std::uint64_t buckets,
                                                 ThreadPool* pool,
                                                 const RetryPolicy& retry) {
  IoStats io;
  // Fault-aware scan: transient faults are retried, permanent ones surface
  // as typed errors.
  EQUIHIST_ASSIGN_OR_RETURN(std::vector<Value> sorted,
                            FullScanChecked(table, &io, pool, retry));
  if (sorted.empty()) {
    return Status::FailedPrecondition("table is empty");
  }
  ParallelSort(sorted, pool);
  ColumnStatistics stats;
  EQUIHIST_RETURN_IF_ERROR(SetSampleStatistics(
      sorted, buckets, sorted.size(), /*sampled=*/false, stats));
  stats.row_count = sorted.size();
  stats.from_full_scan = true;
  stats.sample_size = sorted.size();
  stats.build_cost = io;
  // The ValueSet constructor detects the sorted input and skips its own
  // sequential sort.
  EQUIHIST_ASSIGN_OR_RETURN(
      Histogram histogram,
      BuildPerfectHistogram(ValueSet(std::move(sorted)), buckets));
  stats.SetEquiHeight(std::move(histogram));
  return stats;
}

Result<ColumnStatistics> BuildStatisticsSampled(const Table& table,
                                                const CvbOptions& options,
                                                ThreadPool* pool) {
  EQUIHIST_ASSIGN_OR_RETURN(CvbResult result, RunCvb(table, options, pool));
  EQUIHIST_ASSIGN_OR_RETURN(ColumnStatistics stats,
                            StatisticsFromCvb(result, table.tuple_count()));
  stats.SetEquiHeight(std::move(result.histogram));
  return stats;
}

Result<ColumnStatistics> BuildStatisticsWithBackend(
    const Table& table, const BackendBuildOptions& options, ThreadPool* pool) {
  CvbOptions cvb;
  cvb.k = options.buckets;
  cvb.f = options.f;
  cvb.gamma = options.gamma;
  cvb.seed = options.seed;
  cvb.threads = 1;  // the caller's pool is passed in explicitly
  cvb.retry = options.retry;
  cvb.max_skipped_blocks = options.max_skipped_blocks;
  // The paper's own pipeline for equi-height.
  if (options.backend == HistogramBackendId::kEquiHeight) {
    return BuildStatisticsSampled(table, cvb, pool);
  }
  const bool incremental =
      options.backend == HistogramBackendId::kIncrementalEquiDepth;
  HistogramBackendRegistry::Backend backend;
  if (!incremental) {
    EQUIHIST_ASSIGN_OR_RETURN(
        backend, HistogramBackendRegistry::Global().Find(options.backend));
    // A decode-only backend (ids 3 and 4) has no builder: refuse before
    // any read.
    if (!backend.build_from_sample) {
      return Status::InvalidArgument("backend '" + backend.name +
                                     "' only decodes stored blobs; it has "
                                     "no builder");
    }
  }
  const std::uint64_t n = table.tuple_count();
  EQUIHIST_ASSIGN_OR_RETURN(CvbResult result, RunCvb(table, cvb, pool));
  EQUIHIST_ASSIGN_OR_RETURN(ColumnStatistics stats,
                            StatisticsFromCvb(result, n));
  // The rest build from CVB's final sample, expanded once into sorted
  // values.
  std::vector<Value> sorted;
  sorted.reserve(result.sample.size());
  result.sample.view().ForEachDistinct(
      [&sorted](Value value, std::uint64_t count) {
        sorted.insert(sorted.end(), count, value);
      });
  if (!incremental) {
    EQUIHIST_ASSIGN_OR_RETURN(
        stats.model, backend.build_from_sample(sorted, options.buckets, n));
    return stats;
  }
  // The incremental backend (DESIGN.md §15) publishes CVB's histogram and
  // seeds its backing reservoir from the same sample, so the model and its
  // reservoir agree at birth.
  EQUIHIST_ASSIGN_OR_RETURN(
      BackingReservoir reservoir,
      BackingReservoir::Create(
          std::max(options.reservoir_capacity, options.buckets),
          options.seed));
  EQUIHIST_RETURN_IF_ERROR(reservoir.SeedFromSample(sorted, n));
  stats.model = std::make_shared<IncrementalEquiDepthModel>(
      std::move(result.histogram), std::move(reservoir));
  return stats;
}

Result<ColumnStatistics> MakeIncrementalStatistics(const Histogram& histogram,
                                                   BackingReservoir reservoir) {
  if (reservoir.size() == 0) {
    return Status::FailedPrecondition(
        "cannot assemble statistics from an empty reservoir");
  }
  const std::uint64_t n = histogram.total();
  const std::vector<Value> sorted = reservoir.SortedSample();

  ColumnStatistics stats;
  // The reservoir is a uniform without-replacement sample of the live
  // column, so the paper's sampled estimator applies.
  EQUIHIST_RETURN_IF_ERROR(SetSampleStatistics(
      sorted, histogram.bucket_count(), n, /*sampled=*/true, stats));
  stats.row_count = n;
  stats.from_full_scan = false;
  stats.sample_size = sorted.size();
  stats.build_cost = IoStats{};  // the whole point: zero storage I/O
  stats.model = std::make_shared<IncrementalEquiDepthModel>(
      histogram, std::move(reservoir));
  return stats;
}

}  // namespace equihist
