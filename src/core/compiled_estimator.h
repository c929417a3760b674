#ifndef EQUIHIST_CORE_COMPILED_ESTIMATOR_H_
#define EQUIHIST_CORE_COMPILED_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "core/histogram.h"
#include "data/value_set.h"
#include "data/workload.h"

namespace equihist {

// A histogram flattened for serving: the read-side companion of the
// parallel construction engine (DESIGN.md section 9).
//
// The reference estimator (core/range_estimator.h) walks every bucket a
// query touches — O(buckets covered) per call, which for the wide ranges
// an optimizer actually plans degenerates to O(k). A CompiledEstimator
// spends O(k) once, flattening the histogram into a separator array the
// search walks and one 32-byte record per bucket that the interpolation
// reads:
//
//   separators[k-1]      the sorted bucket boundaries, contiguous
//   buckets[k]           per bucket j, one record (one cache line):
//     .lo                exclusive lower bound, fences substituted for
//                        the outermost buckets
//     .count             claimed count as a double
//     .inv_width         precomputed 1 / (bucket_hi - bucket_lo); 0.0 for
//                        zero-width (duplicated-separator spike) buckets
//     .cum               prefix-summed claimed counts of buckets 0..j-1,
//                        exact integers
//   run_first/last[k-1]  per separator, the first/last index of its
//                        maximal equal-value run — the Section 5
//                        duplicated-separator table
//
// A range estimate then becomes two branchless binary searches, two
// partial-bucket interpolations and one prefix-sum difference:
//
//   estimate(lo, hi] = F(hi) - F(lo),
//   F(x) = b.cum + b.count * (x - b.lo) * b.inv_width,
//          b = buckets[ub(x)],        ub(x) = first separator > x,
//
// O(log k) per query with no data-dependent branches in the search loop.
// Zero-width spike buckets need no special casing on this path: ub(x)
// steps past an entire duplicated-separator run, so a spike's mass enters
// through the prefix sums all-or-nothing exactly as the reference
// estimator counts it, and the partially covered bucket ub(x) is provably
// never degenerate (bucket_lo[ub] <= x < bucket_hi[ub]).
//
// Bitwise determinism: this translation unit builds with FP contraction
// disabled, so the interpolation is always mul, mul, add and an estimate's
// bits do not depend on whether the target has FMA (GCC contracts by
// default even in ISO C++ mode). Every caller — a shard's batch loop, the
// planner, workload scoring — estimates one query per call through
// EstimateRangeCount, so there is one code path whose bits to pin.
//
// Numerical contract vs the reference loop: estimates agree with the
// reference estimator bit-for-bit whenever every covered bucket is either
// fully inside or fully outside the range (separator-aligned queries,
// spike lookups, whole-domain queries) and totals stay below 2^53.
// Partially covered end buckets interpolate as count * ((x - lo) *
// inv_width) where the reference computes count * ((x - lo) / width); with
// both endpoints inside one bucket the reference uses a single term where
// the compiled path uses a prefix difference. Each effect is a few ulps of
// the end bucket's count, so results agree within ~8 ulps of the largest
// bucket count involved (documented 1-ulp-class tolerance; the
// differential test enforces it). Results are clamped to be non-negative,
// like the reference's term-by-term accumulation.
//
// Thread safety: immutable after construction; all estimation methods are
// const and safe to call concurrently from any number of threads. This is
// what the StatisticsManager lock-free serving path relies on.
class CompiledEstimator {
 public:
  // Flattens `histogram`. O(k) time and memory; the histogram itself is
  // not retained.
  explicit CompiledEstimator(const Histogram& histogram);

  // Estimated output size of "lo < X <= hi" — same semantics as the
  // reference EstimateRangeCount, in O(log k).
  double EstimateRangeCount(const RangeQuery& query) const;

  // Estimated selectivity in [0, 1]: EstimateRangeCount / total.
  double EstimateRangeSelectivity(const RangeQuery& query) const;

  // Estimated count of values <= x: the prefix F(x) both ends of a range
  // estimate are computed from. Clamps x to the fences.
  double EstimateCountAtMost(Value x) const;

  // Mass pinned at exactly `v` by zero-width spike buckets (a duplicated
  // separator's run, Section 5); 0.0 when v is not a duplicated separator.
  // One binary search plus two run-table lookups.
  double SpikeMassAt(Value v) const;

  // Index of the bucket containing `v`, with the duplicated-separator
  // convention of Histogram::BucketIndexForValue (a heavy value maps to
  // the last bucket of its run). One binary search plus one run-table
  // lookup instead of the reference's two binary searches.
  std::uint64_t BucketIndexForValue(Value v) const;

  std::uint64_t bucket_count() const { return k_; }
  double total() const { return total_; }
  Value lower_fence() const { return lower_fence_; }
  Value upper_fence() const { return upper_fence_; }

  // Heap footprint of the flattened arrays (for
  // HistogramModel::MemoryBytes accounting).
  std::size_t MemoryBytes() const;

 private:
  // F(x): estimated count in (lower_fence, x]. Precondition:
  // lower_fence_ <= x <= upper_fence_.
  double Cdf(Value x) const;

  std::uint64_t k_ = 1;
  Value lower_fence_ = 0;
  Value upper_fence_ = 0;
  double total_ = 0.0;
  // Everything F(x) reads of the bucket the search lands in, so a cold
  // estimate touches one line per end instead of four (DESIGN.md §9).
  struct alignas(32) Bucket {
    Value lo = 0;
    double count = 0.0;
    double inv_width = 0.0;
    double cum = 0.0;
  };
  static_assert(sizeof(Bucket) == 32);

  std::vector<Value> separators_;          // k-1
  std::vector<Bucket> buckets_;            // k
  std::vector<std::uint32_t> run_first_;   // k-1
  std::vector<std::uint32_t> run_last_;    // k-1
};

}  // namespace equihist

#endif  // EQUIHIST_CORE_COMPILED_ESTIMATOR_H_
