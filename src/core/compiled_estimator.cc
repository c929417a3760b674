#include "core/compiled_estimator.h"

#include <algorithm>
#include <cstdint>

namespace equihist {
namespace {

// Branchless binary searches over the separator array. The loop body has
// no data-dependent branch — only a conditional add the compiler lowers to
// cmov — and `len` shrinks by exactly half per iteration regardless of the
// comparison, so the search runs in a fixed ceil(log2 k) steps.
//
// Invariant: the answer (number of qualifying elements) lies in
// [base, base + len]. Probing a[base + half - 1]: if it qualifies, at
// least base + half elements do; otherwise the answer is at most
// base + half - 1 < base + (len - half).
template <bool kStrict>  // kStrict: count elements < x; else elements <= x
std::size_t BranchlessBound(const Value* a, std::size_t n, Value x) {
  std::size_t base = 0;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len >> 1;
    const Value probe = a[base + half - 1];
    const bool right = kStrict ? (probe < x) : (probe <= x);
    base += right ? half : 0;
    len -= half;
  }
  if (n != 0) {
    const bool take = kStrict ? (a[base] < x) : (a[base] <= x);
    base += take ? 1 : 0;
  }
  return base;
}

// Index of the first separator > x (== std::upper_bound).
std::size_t UpperBoundIndex(const std::vector<Value>& seps, Value x) {
  return BranchlessBound<false>(seps.data(), seps.size(), x);
}

// Index of the first separator >= x (== std::lower_bound).
std::size_t LowerBoundIndex(const std::vector<Value>& seps, Value x) {
  return BranchlessBound<true>(seps.data(), seps.size(), x);
}

}  // namespace

CompiledEstimator::CompiledEstimator(const Histogram& histogram)
    : k_(histogram.bucket_count()),
      lower_fence_(histogram.lower_fence()),
      upper_fence_(histogram.upper_fence()),
      separators_(histogram.separators()) {
  const std::vector<std::uint64_t>& counts = histogram.counts();
  buckets_.resize(k_);

  // Prefix sums are accumulated in exact integer arithmetic and converted
  // once, so `cum` carries no summation-order error (exact below 2^53, the
  // same precision envelope as the reference's Kahan accumulation).
  std::uint64_t running = 0;
  for (std::uint64_t j = 0; j < k_; ++j) {
    Bucket& bucket = buckets_[j];
    bucket.cum = static_cast<double>(running);
    running += counts[j];
    const Value lo = histogram.BucketLowerBound(j);
    const Value hi = histogram.BucketUpperBound(j);
    bucket.lo = lo;
    bucket.count = static_cast<double>(counts[j]);
    bucket.inv_width = (hi > lo) ? 1.0 / ValueDistance(lo, hi) : 0.0;
  }
  total_ = static_cast<double>(running);

  // Duplicated-separator run table: for each separator, the first and last
  // index of its maximal equal-value run. Built in one pass; runs of
  // length one map to themselves.
  const std::size_t s = separators_.size();
  run_first_.resize(s);
  run_last_.resize(s);
  for (std::size_t i = 0; i < s;) {
    std::size_t j = i;
    while (j + 1 < s && separators_[j + 1] == separators_[i]) ++j;
    for (std::size_t r = i; r <= j; ++r) {
      run_first_[r] = static_cast<std::uint32_t>(i);
      run_last_[r] = static_cast<std::uint32_t>(j);
    }
    i = j + 1;
  }
}

double CompiledEstimator::Cdf(Value x) const {
  if (x >= upper_fence_) return total_;
  // x < upper_fence, so the partially covered bucket b satisfies
  // b.lo <= x < bucket_hi: it is never a zero-width spike and its
  // inv_width is a true inverse. Everything before it — including whole
  // duplicated-separator runs whose value is <= x — is covered by the
  // exact prefix sum. The operation order is mul, mul, add (contraction
  // is disabled for this TU).
  const Bucket& b = buckets_[UpperBoundIndex(separators_, x)];
  return b.cum + b.count * (ValueDistance(b.lo, x) * b.inv_width);
}

double CompiledEstimator::EstimateRangeCount(const RangeQuery& query) const {
  const Value lo = std::max(query.lo, lower_fence_);
  const Value hi = std::min(query.hi, upper_fence_);
  if (hi <= lo) return 0.0;
  // For astronomically wide buckets (width near 2^63) the interpolation
  // term can round a hair above the bucket count, so the difference of two
  // in-order prefix evaluations is clamped like the reference estimator's
  // term-by-term sum, which is non-negative by construction.
  return std::max(Cdf(hi) - Cdf(lo), 0.0);
}

double CompiledEstimator::EstimateRangeSelectivity(
    const RangeQuery& query) const {
  if (total_ == 0.0) return 0.0;
  return EstimateRangeCount(query) / total_;
}

double CompiledEstimator::EstimateCountAtMost(Value x) const {
  if (x <= lower_fence_) return 0.0;
  return Cdf(std::min(x, upper_fence_));
}

double CompiledEstimator::SpikeMassAt(Value v) const {
  const std::size_t i = LowerBoundIndex(separators_, v);
  if (i >= separators_.size() || separators_[i] != v) return 0.0;
  const std::size_t first = run_first_[i];
  const std::size_t last = run_last_[i];
  // Zero-width buckets pinned at v are first+1..last; bucket `first` keeps
  // the lighter values below v — unless it is itself zero-width because v
  // coincides with its lower bound (e.g. a run starting at the fence).
  // last + 1 <= k - 1: separators number k - 1.
  const std::size_t begin =
      first + ((buckets_[first].inv_width == 0.0) ? 0 : 1);
  return buckets_[last + 1].cum - buckets_[begin].cum;
}

std::uint64_t CompiledEstimator::BucketIndexForValue(Value v) const {
  const std::size_t i = LowerBoundIndex(separators_, v);
  if (i < separators_.size() && separators_[i] == v) return run_last_[i];
  return i;
}

std::size_t CompiledEstimator::MemoryBytes() const {
  return separators_.size() * sizeof(Value) +
         buckets_.size() * sizeof(Bucket) +
         run_first_.size() * sizeof(std::uint32_t) +
         run_last_.size() * sizeof(std::uint32_t);
}

}  // namespace equihist
