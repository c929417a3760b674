#include "core/histogram.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace equihist {

Result<Histogram> Histogram::Create(std::vector<Value> separators,
                                    std::vector<std::uint64_t> bucket_counts,
                                    Value lower_fence, Value upper_fence) {
  if (bucket_counts.empty()) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }
  if (separators.size() != bucket_counts.size() - 1) {
    return Status::InvalidArgument(
        "histogram needs exactly k-1 separators for k buckets");
  }
  if (!std::is_sorted(separators.begin(), separators.end())) {
    return Status::InvalidArgument("separators must be non-decreasing");
  }
  if (lower_fence > upper_fence) {
    return Status::InvalidArgument("lower fence must not exceed upper fence");
  }
  if (!separators.empty()) {
    if (separators.front() < lower_fence || separators.back() > upper_fence) {
      return Status::InvalidArgument("separators must lie within the fences");
    }
  }
  return Histogram(std::move(separators), std::move(bucket_counts),
                   lower_fence, upper_fence);
}

Histogram::Histogram(std::vector<Value> separators,
                     std::vector<std::uint64_t> counts, Value lower_fence,
                     Value upper_fence)
    : separators_(std::move(separators)),
      counts_(std::move(counts)),
      lower_fence_(lower_fence),
      upper_fence_(upper_fence) {
  total_ = std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

std::uint64_t Histogram::BucketIndexForValue(Value v) const {
  // First separator >= v; bucket j is bounded above by separator j (0-based).
  const auto it = std::lower_bound(separators_.begin(), separators_.end(), v);
  if (it != separators_.end() && *it == v) {
    // v coincides with a separator. If the separator is duplicated
    // (Section 5: a value heavier than n/k), v's mass belongs to the run's
    // *last* bucket — the zero-width (v, v] spike — so its count is not
    // smeared across the preceding bucket's value range by interpolation.
    const auto last = std::upper_bound(it, separators_.end(), v) - 1;
    return static_cast<std::uint64_t>(last - separators_.begin());
  }
  return static_cast<std::uint64_t>(it - separators_.begin());
}

Value Histogram::BucketLowerBound(std::uint64_t j) const {
  return j == 0 ? lower_fence_ : separators_[j - 1];
}

Value Histogram::BucketUpperBound(std::uint64_t j) const {
  return j == counts_.size() - 1 ? upper_fence_ : separators_[j];
}

std::vector<std::uint64_t> Histogram::PartitionCounts(
    const ValueSet& population) const {
  return PartitionSorted(population.sorted_values());
}

std::vector<std::uint64_t> Histogram::PartitionSorted(SortedView sorted) const {
  return SamplePartitionCounts(sorted, separators_);
}

Histogram Histogram::MeasuredAgainst(const ValueSet& population) const {
  Histogram measured = *this;
  measured.counts_ = PartitionCounts(population);
  measured.total_ = population.size();
  if (!population.empty()) {
    measured.lower_fence_ = std::min(lower_fence_, population.min() - 1);
    measured.upper_fence_ = std::max(upper_fence_, population.max());
  }
  return measured;
}

std::string Histogram::ToString(std::size_t max_buckets) const {
  std::ostringstream os;
  const std::uint64_t k = bucket_count();
  os << "EquiHeightHistogram{k=" << k << ", n=" << FormatWithThousands(total_)
     << ", fences=(" << lower_fence_ << ", " << upper_fence_ << "]}\n";
  const std::uint64_t show = std::min<std::uint64_t>(k, max_buckets);
  for (std::uint64_t j = 0; j < show; ++j) {
    os << "  B" << j + 1 << ": (" << BucketLowerBound(j) << ", "
       << BucketUpperBound(j) << "]  count=" << counts_[j] << "\n";
  }
  if (show < k) os << "  ... (" << k - show << " more buckets)\n";
  return os.str();
}

std::vector<std::uint64_t> SamplePartitionCounts(
    SortedView sorted, std::span<const Value> separators) {
  std::vector<std::uint64_t> ranks(separators.size());
  ranks.reserve(separators.size() + 1);
  sorted.PartitionRanks(separators, ranks);
  return CountsFromRanks(std::move(ranks), sorted.size());
}

std::vector<std::uint64_t> CountsFromRanks(std::vector<std::uint64_t> ranks,
                                           std::uint64_t size) {
  // In place, back to front: each count needs only its own rank and the
  // one before it.
  ranks.resize(ranks.size() + 1, size);
  for (std::size_t j = ranks.size() - 1; j > 0; --j) {
    ranks[j] -= ranks[j - 1];
  }
  return ranks;
}

}  // namespace equihist
