#include "core/range_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"

namespace equihist {

double EstimateRangeCount(const Histogram& histogram,
                          const RangeQuery& query) {
  // Clamp to the histogram's known domain; nothing lives outside the fences.
  const Value lo = std::max(query.lo, histogram.lower_fence());
  const Value hi = std::min(query.hi, histogram.upper_fence());
  if (hi <= lo) return 0.0;

  const std::uint64_t k = histogram.bucket_count();
  // Buckets that can intersect (lo, hi]: from the first bucket whose upper
  // boundary reaches past lo, through the last bucket whose (exclusive)
  // lower boundary is still <= hi. The upper_bound form matters for
  // duplicated separators: a zero-width spike bucket (v, v] with v == hi
  // must be visited.
  const auto& seps = histogram.separators();
  // First bucket whose upper boundary reaches past lo. (Deliberately NOT
  // BucketIndexForValue: that maps a duplicated-separator value to its
  // run's last bucket, but the earlier buckets of the run — and the light
  // bucket before it — can still intersect the range.)
  const std::uint64_t first = static_cast<std::uint64_t>(
      std::lower_bound(seps.begin(), seps.end(), lo + 1) - seps.begin());
  const std::uint64_t last = static_cast<std::uint64_t>(
      std::upper_bound(seps.begin(), seps.end(), hi) - seps.begin());

  KahanSum estimate;
  for (std::uint64_t j = first; j <= last && j < k; ++j) {
    const Value bucket_lo = histogram.BucketLowerBound(j);
    const Value bucket_hi = histogram.BucketUpperBound(j);
    const double count = static_cast<double>(histogram.counts()[j]);
    if (bucket_hi <= bucket_lo) {
      // Zero-width bucket: a single (repeated) value at bucket_hi.
      if (lo < bucket_hi && bucket_hi <= hi) estimate.Add(count);
      continue;
    }
    const Value cover_lo = std::max(lo, bucket_lo);
    const Value cover_hi = std::min(hi, bucket_hi);
    if (cover_hi <= cover_lo) continue;
    // ValueDistance: the signed subtraction would overflow for buckets
    // spanning more than half the int64 domain (INT64_MIN/MAX fences).
    const double fraction = ValueDistance(cover_lo, cover_hi) /
                            ValueDistance(bucket_lo, bucket_hi);
    estimate.Add(count * fraction);
  }
  return estimate.Value();
}

double EstimateRangeSelectivity(const Histogram& histogram,
                                const RangeQuery& query) {
  const double total = static_cast<double>(histogram.total());
  if (total == 0.0) return 0.0;
  return EstimateRangeCount(histogram, query) / total;
}

double PerfectHistogramAbsoluteErrorBound(std::uint64_t n, std::uint64_t k) {
  return 2.0 * static_cast<double>(n) / static_cast<double>(k);
}

double MaxErrorHistogramAbsoluteErrorBound(std::uint64_t n, std::uint64_t k,
                                           double f) {
  return (1.0 + f) * PerfectHistogramAbsoluteErrorBound(n, k);
}

double AvgErrorHistogramAbsoluteErrorFloor(std::uint64_t n, std::uint64_t k,
                                           double f) {
  return (1.0 + f * static_cast<double>(k) / 4.0) *
         PerfectHistogramAbsoluteErrorBound(n, k);
}

double VarErrorHistogramAbsoluteErrorFloor(std::uint64_t n, std::uint64_t k,
                                           double f, double t) {
  return (1.0 + f * std::sqrt(static_cast<double>(k) * t / 8.0)) *
         PerfectHistogramAbsoluteErrorBound(n, k);
}

}  // namespace equihist
