#ifndef EQUIHIST_CORE_HISTOGRAM_H_
#define EQUIHIST_CORE_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/distribution.h"
#include "data/sorted_view.h"
#include "data/value_set.h"

namespace equihist {

// The mathematical distance hi - lo between two domain values, as a
// double. Computed in unsigned arithmetic because the signed subtraction
// overflows (UB) when an interval spans more than half the int64 domain —
// e.g. a bucket fenced at INT64_MIN/INT64_MAX. Precondition: lo <= hi.
inline double ValueDistance(Value lo, Value hi) {
  return static_cast<double>(static_cast<std::uint64_t>(hi) -
                             static_cast<std::uint64_t>(lo));
}

// An equi-height k-histogram (Section 2.1). The domain is partitioned by
// separators s_1 <= s_2 <= ... <= s_{k-1} into buckets
//   B_j = { v : s_{j-1} < v <= s_j },   s_0 = -inf, s_k = +inf.
// Separators may repeat when a value's multiplicity exceeds n/k (Section 5).
//
// For range estimation the histogram additionally keeps finite domain
// fences: lower_fence (exclusive lower end of bucket 1, one below the
// smallest value seen) and upper_fence (inclusive upper end of bucket k).
// These stand in for the +-infinity endpoints when interpolating inside the
// first/last bucket, the way SQL Server stores the column min/max with its
// steps.
//
// `bucket_counts` are the histogram's *claimed* sizes: exactly n/k-ish for
// a perfect histogram, the scaled estimate n/k for a sample-built one.
// True sizes under a population are obtained with PartitionCounts().
class Histogram {
 public:
  // Validates shape: counts.size() == k >= 1, separators.size() == k-1,
  // separators non-decreasing, fences ordered.
  static Result<Histogram> Create(std::vector<Value> separators,
                                  std::vector<std::uint64_t> bucket_counts,
                                  Value lower_fence, Value upper_fence);

  std::uint64_t bucket_count() const { return counts_.size(); }  // k
  std::uint64_t total() const { return total_; }                 // n

  const std::vector<Value>& separators() const { return separators_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  Value lower_fence() const { return lower_fence_; }
  Value upper_fence() const { return upper_fence_; }

  // Index in [0, k) of the bucket containing `v`. Values beyond the last
  // separator fall in bucket k-1, values at or below the lower fence in
  // bucket 0. When v equals a *duplicated* separator (a value heavier than
  // n/k, Section 5), it maps to the last bucket of the run — the
  // zero-width (v, v] spike — so its mass is pinned rather than smeared
  // across the preceding bucket's value range.
  std::uint64_t BucketIndexForValue(Value v) const;

  // Exclusive lower / inclusive upper domain boundary of bucket j, using
  // the finite fences for the outermost buckets. Precondition: j < k.
  Value BucketLowerBound(std::uint64_t j) const;
  Value BucketUpperBound(std::uint64_t j) const;

  // Partitions `population` with this histogram's separators and returns
  // the resulting per-bucket counts — the b_j of the error metrics. O(k log n).
  std::vector<std::uint64_t> PartitionCounts(const ValueSet& population) const;

  // Same for an arbitrary sorted multiset (used to partition validation
  // samples without building a ValueSet). O(k log entries).
  std::vector<std::uint64_t> PartitionSorted(SortedView sorted) const;

  // Returns a copy of this histogram whose claimed bucket counts are the
  // true counts under `population` (for reporting / estimation with
  // measured frequencies).
  Histogram MeasuredAgainst(const ValueSet& population) const;

  // Multi-line human-readable rendering (for examples and debugging).
  std::string ToString(std::size_t max_buckets = 16) const;

 private:
  Histogram(std::vector<Value> separators, std::vector<std::uint64_t> counts,
            Value lower_fence, Value upper_fence);

  std::vector<Value> separators_;        // size k-1, non-decreasing
  std::vector<std::uint64_t> counts_;    // size k
  std::uint64_t total_ = 0;              // sum of counts_
  Value lower_fence_ = 0;
  Value upper_fence_ = 0;
};

// Partitions a sorted multiset by non-decreasing separators, under the rule
// of Histogram::BucketIndexForValue: a run of duplicated separators puts the
// repeated value's mass in the run's *last*, zero-width bucket, so the spike
// is never smeared by in-bucket interpolation. Returns separators.size() + 1
// counts summing to sorted.size(); each separator's cumulative rank is one
// binary search (SortedView::PartitionRanks).
std::vector<std::uint64_t> SamplePartitionCounts(
    SortedView sorted, std::span<const Value> separators);

// The bucket counts of a multiset of `size` elements whose partition ranks
// (SortedView::PartitionRanks) are `ranks`: ranks.size() + 1 counts.
std::vector<std::uint64_t> CountsFromRanks(std::vector<std::uint64_t> ranks,
                                           std::uint64_t size);

}  // namespace equihist

#endif  // EQUIHIST_CORE_HISTOGRAM_H_
