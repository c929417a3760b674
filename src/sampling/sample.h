#ifndef EQUIHIST_SAMPLING_SAMPLE_H_
#define EQUIHIST_SAMPLING_SAMPLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "data/distribution.h"

namespace equihist {

// The accumulated sample R of the CVB algorithm: a multiset of sampled
// values kept sorted so that (a) equi-height separators can be read off by
// rank, and (b) a fresh batch R_i can be folded in with a linear merge —
// the "merge algorithm" extension the paper made to SQL Server's block
// sampling (Section 7.1, implementation note 2).
//
// All operations accept an optional ThreadPool: sorting and merging then
// run as parallel runs + merge-path merges. The resulting vector is
// identical for every thread count (sorting scalars has a unique result),
// so sample-derived histograms are bit-reproducible across pools.
class Sample {
 public:
  Sample() = default;

  // Builds from unsorted values (sorts once, in parallel when a pool is
  // given).
  explicit Sample(std::vector<Value> values, ThreadPool* pool = nullptr);

  std::uint64_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // Merges a batch that is already sorted ascending into the sample in
  // linear time (merge-path parallel with a pool). The caller sorts the
  // batch: CVB sorts each fresh batch once, validates against it, then
  // merges it here.
  void MergeSorted(std::span<const Value> sorted_batch,
                   ThreadPool* pool = nullptr);

  // Sorted ascending.
  const std::vector<Value>& sorted_values() const { return values_; }

  // Number of sample values v with v <= x.
  std::uint64_t CountLessEqual(Value x) const;

  // The i-th smallest sampled value, 0-based.
  Value ValueAtRank(std::uint64_t rank) const { return values_[rank]; }

 private:
  std::vector<Value> values_;
};

}  // namespace equihist

#endif  // EQUIHIST_SAMPLING_SAMPLE_H_
