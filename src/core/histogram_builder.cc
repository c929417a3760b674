#include "core/histogram_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/math.h"

namespace equihist {
namespace {

// The separators at QuantileRanks, read in one forward walk.
std::vector<Value> QuantileSeparators(SortedView sorted, std::uint64_t k) {
  const std::vector<std::uint64_t> ranks = QuantileRanks(sorted.size(), k);
  std::vector<Value> separators(ranks.size());
  sorted.ValuesAtRanks(ranks, separators);
  return separators;
}

// Scales the sample's per-bucket counts up to the population size, keeping
// the exact total via largest-remainder rounding. With duplicate-free data
// every sample bucket holds ~m/k values and the claimed counts come out as
// the even n/k split; with duplicates the bucket holding a heavy value
// keeps its true (scaled) share — which is what the estimation quality
// metrics and the range estimator need, and what real systems persist.
std::vector<std::uint64_t> ScaledCounts(
    const std::vector<std::uint64_t>& sample_counts, std::uint64_t total) {
  std::vector<double> weights;
  weights.reserve(sample_counts.size());
  for (std::uint64_t c : sample_counts) {
    weights.push_back(static_cast<double>(c));
  }
  return ApportionProportionally(weights, total);
}

// The exclusive lower fence sits one below the smallest value seen,
// saturating at the domain minimum: INT64_MIN - 1 would be signed overflow
// (UB), so a column whose minimum is INT64_MIN keeps the fence at
// INT64_MIN and its smallest value coincides with the fence.
Value LowerFenceFor(Value minimum) {
  return minimum == std::numeric_limits<Value>::min() ? minimum : minimum - 1;
}

Status ValidateInputs(std::uint64_t m, std::uint64_t k) {
  if (k == 0) return Status::InvalidArgument("k must be at least 1");
  if (m == 0) {
    return Status::FailedPrecondition(
        "cannot build a histogram over an empty value set");
  }
  return Status::OK();
}

}  // namespace

std::vector<std::uint64_t> QuantileRanks(std::uint64_t m, std::uint64_t k) {
  std::vector<std::uint64_t> ranks;
  if (m == 0 || k == 0) return ranks;
  ranks.reserve(k - 1);
  for (std::uint64_t j = 1; j < k; ++j) {
    // ceil(j*m/k) as integer arithmetic; clamp to [1, m].
    std::uint64_t rank = (j * m + k - 1) / k;
    if (rank == 0) rank = 1;
    if (rank > m) rank = m;
    ranks.push_back(rank - 1);
  }
  return ranks;
}

Result<Histogram> BuildPerfectHistogram(const ValueSet& population,
                                        std::uint64_t k) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(population.size(), k));
  const SortedView sorted = population.sorted_values();
  std::vector<Value> separators = QuantileSeparators(sorted, k);

  // True counts per bucket, under the run-aware partition rule.
  std::vector<std::uint64_t> counts =
      SamplePartitionCounts(sorted, separators);

  return Histogram::Create(std::move(separators), std::move(counts),
                           LowerFenceFor(population.min()), population.max());
}

Result<Histogram> BuildHistogramFromSample(SortedView sorted_sample,
                                           std::uint64_t k,
                                           std::uint64_t population_size) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(sorted_sample.size(), k));
  if (population_size == 0) {
    return Status::InvalidArgument("population_size must be positive");
  }
  return BuildHistogramFromSeparators(
      sorted_sample, QuantileSeparators(sorted_sample, k), population_size);
}

Result<Histogram> BuildHistogramFromSeparators(SortedView sorted_sample,
                                               std::vector<Value> separators,
                                               std::uint64_t population_size) {
  EQUIHIST_RETURN_IF_ERROR(
      ValidateInputs(sorted_sample.size(), separators.size() + 1));
  if (population_size == 0) {
    return Status::InvalidArgument("population_size must be positive");
  }
  std::vector<std::uint64_t> claimed = ScaledCounts(
      SamplePartitionCounts(sorted_sample, separators), population_size);
  return Histogram::Create(std::move(separators), std::move(claimed),
                           LowerFenceFor(sorted_sample.front()),
                           sorted_sample.back());
}

Result<Histogram> BuildHistogramFromSample(const Sample& sample,
                                           std::uint64_t k,
                                           std::uint64_t population_size) {
  return BuildHistogramFromSample(sample.view(), k, population_size);
}

}  // namespace equihist
