#ifndef EQUIHIST_CORE_HISTOGRAM_BUILDER_H_
#define EQUIHIST_CORE_HISTOGRAM_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/histogram.h"
#include "data/sorted_view.h"
#include "data/value_set.h"
#include "sampling/sample.h"

namespace equihist {

// Builders for equi-height histograms.
//
// Both builders place separator s_j at the ceil(j * m / k)-th smallest value
// of the m values they see (1-based), i.e. the j-th k-quantile, which makes
// each bucket's size as close to m/k as duplicate values permit. When a
// value's multiplicity exceeds m/k, adjacent separators coincide — the
// duplicated-separator representation of Section 5. Both partition with
// SamplePartitionCounts (core/histogram.h) on the calling thread.

// The perfect histogram: separators from the full sorted value set, claimed
// counts equal to the true partition counts. Requires k >= 1 and a
// non-empty population; k may exceed n (trailing buckets are then empty).
Result<Histogram> BuildPerfectHistogram(const ValueSet& population,
                                        std::uint64_t k);

// The approximate histogram of Section 3.1: separators from a sorted random
// sample; claimed counts are the sample's per-bucket counts scaled to
// population_size (summing to it exactly). On duplicate-free data the
// separators make every sample bucket hold ~r/k values, so the claims come
// out as the even population_size/k split of the paper's definition; under
// heavy duplication (Section 5) the bucket holding a repeated value keeps
// its true scaled share instead of a fictitious n/k. The claimed counts are
// what an optimizer would use; measure true counts with
// Histogram::PartitionCounts / MeasuredAgainst.
Result<Histogram> BuildHistogramFromSample(SortedView sorted_sample,
                                           std::uint64_t k,
                                           std::uint64_t population_size);

// Convenience overload for an accumulated Sample.
Result<Histogram> BuildHistogramFromSample(const Sample& sample,
                                           std::uint64_t k,
                                           std::uint64_t population_size);

// The 0-based sorted ranks of the k-1 separators both builders place among
// m values, ascending: ceil(j*m/k) - 1 for j = 1..k-1, clamped to [0, m).
// None for m = 0.
std::vector<std::uint64_t> QuantileRanks(std::uint64_t m, std::uint64_t k);

// BuildHistogramFromSample, k = separators.size() + 1, with the separators
// already read off the sample at QuantileRanks(sorted_sample.size(), k):
// CVB's Sample::Add reads them while it folds a batch in.
Result<Histogram> BuildHistogramFromSeparators(SortedView sorted_sample,
                                               std::vector<Value> separators,
                                               std::uint64_t population_size);

}  // namespace equihist

#endif  // EQUIHIST_CORE_HISTOGRAM_BUILDER_H_
