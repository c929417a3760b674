#ifndef EQUIHIST_SAMPLING_SAMPLE_H_
#define EQUIHIST_SAMPLING_SAMPLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel_sort.h"
#include "common/thread_pool.h"
#include "data/distribution.h"
#include "data/sorted_view.h"

namespace equihist {

// Distinct values in ascending order, each with the number of elements at
// or below it: the storage behind a SortedView of runs.
struct Runs {
  std::vector<Value> values;
  std::vector<std::uint64_t> cumulative;

  SortedView view() const { return SortedView(values, cumulative); }
};

// Turns an unsorted batch into a sorted view with one scan for its key
// bounds. When the key range max - min (KeyBounds::range, overflow-safe) is
// smaller than the batch, the keys are counted into range + 1 counters and
// emitted as runs into `counted`; the batch keeps its order. Otherwise the
// batch is sorted in place, the radix sort taking the scanned bounds, and
// viewed as runs of one, which may repeat values. The view points into
// `batch` or `counted`. The result is the same multiset for every pool.
SortedView SortOrCount(std::vector<Value>& batch, Runs& counted,
                       ThreadPool* pool = nullptr);

namespace sample_internal {

// SortOrCount's counting path: counts `batch` into bounds.range() + 1
// counters and writes its runs to `out`. Precondition: bounds holds every
// key, and range + 1 counters fit in memory (SortOrCount counts only when
// the range is smaller than the batch).
void CountRuns(std::span<const Value> batch, KeyBounds bounds, Runs& out);

}  // namespace sample_internal

// The accumulated sample R of the CVB algorithm, kept as sorted runs so
// that (a) equi-height separators can be read off by rank, and (b) a fresh
// batch R_i can be folded in with one linear pass — the "merge algorithm"
// extension the paper made to SQL Server's block sampling (Section 7.1,
// implementation note 2). On duplicated columns the runs number the
// distinct values seen, far fewer than the tuples, and every operation
// scales with them.
class Sample {
 public:
  Sample() = default;

  // Builds from unsorted values, counted or sorted once (SortOrCount).
  explicit Sample(std::vector<Value> values, ThreadPool* pool = nullptr);

  std::uint64_t size() const { return view().size(); }
  bool empty() const { return runs_.values.empty(); }

  // Merges a sorted multiset into the sample in one sequential pass over
  // the sample's runs and the batch's entries: each value is appended, or
  // added to the last run when it repeats, so a sorted batch with
  // duplicates needs no separate run-length pass.
  void Merge(SortedView batch);

  SortedView view() const { return runs_.view(); }
  const Runs& runs() const { return runs_; }

  // Number of sample values v with v < x / v <= x.
  std::uint64_t CountLess(Value x) const { return view().CountLess(x); }
  std::uint64_t CountLessEqual(Value x) const {
    return view().CountLessEqual(x);
  }

  // The i-th smallest sampled value, 0-based. Precondition: rank < size().
  Value ValueAtRank(std::uint64_t rank) const {
    return view().ValueAtRank(rank);
  }

 private:
  Runs runs_;
};

}  // namespace equihist

#endif  // EQUIHIST_SAMPLING_SAMPLE_H_
