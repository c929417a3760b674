#include "sampling/sample.h"

#include <algorithm>

#include "common/parallel_sort.h"

namespace equihist {

Sample::Sample(std::vector<Value> values, ThreadPool* pool)
    : values_(std::move(values)) {
  ParallelSort(values_, pool);
}

void Sample::MergeSorted(std::span<const Value> sorted_batch,
                         ThreadPool* pool) {
  if (sorted_batch.empty()) return;
  std::vector<Value> merged(values_.size() + sorted_batch.size());
  ParallelMergeSorted(values_.data(), values_.size(), sorted_batch.data(),
                      sorted_batch.size(), merged.data(), pool);
  values_ = std::move(merged);
}

std::uint64_t Sample::CountLessEqual(Value x) const {
  return static_cast<std::uint64_t>(
      std::upper_bound(values_.begin(), values_.end(), x) - values_.begin());
}

}  // namespace equihist
