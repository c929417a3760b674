#ifndef EQUIHIST_SAMPLING_SAMPLE_H_
#define EQUIHIST_SAMPLING_SAMPLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel_sort.h"
#include "common/thread_pool.h"
#include "data/distribution.h"
#include "data/sorted_view.h"
#include "storage/page.h"

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

// Sample::Add's window path, first pass: adds the tuple counts of `pages`
// into `counts`, one slot per key from `base`. Precondition: counts covers
// every key of every page.
void CountPages(std::span<const Page* const> pages, Value base,
                std::span<std::uint64_t> counts);

// Sample::Add's window path, last pass: folds one batch's per-slot
// `counts` into the cumulative `window` over the same keys from `base`,
// then zeroes `counts` with one fill. On the way it records, at each of
// `separators` (non-decreasing), the batch's partition rank
// (SortedView::PartitionRanks) into batch_ranks[j] and the window's rank
// before the fold into before_ranks[j], and reads the folded window's
// values at `quantile_ranks` (ascending) into `quantiles`, as
// SortedView::ValuesAtRanks would. Preconditions: the window is non-empty,
// counts.size() == window.size(), both rank spans have separators.size()
// entries, quantiles has quantile_ranks.size(), and each quantile rank is
// below the folded window's total.
void FoldCounts(Value base, std::span<std::uint64_t> counts,
                std::span<std::uint64_t> window,
                std::span<const Value> separators,
                std::span<std::uint64_t> batch_ranks,
                std::span<std::uint64_t> before_ranks,
                std::span<const std::uint64_t> quantile_ranks = {},
                std::span<Value> quantiles = {});

}  // namespace sample_internal

// The accumulated sample R of the CVB algorithm, kept so that (a)
// equi-height separators can be read off by rank, and (b) a fresh batch
// R_i can be folded in with one linear pass — the "merge algorithm"
// extension the paper made to SQL Server's block sampling (Section 7.1,
// implementation note 2). R takes one of two forms:
//   - a key window: while the key range of R and the fresh batch together
//     is small enough for their tuple count (the window rule below), R and
//     the batch are cumulative counts over one window of consecutive keys.
//     Counting the batch is one pass over its pages, folding it into R is
//     one pass over the window, and every rank query is an index;
//   - runs: otherwise. The batch is decoded out of its pages, counted or
//     sorted by SortOrCount, and merged. On duplicated columns the runs
//     number the distinct values seen, far fewer than the tuples.
// Every output is a function of the multiset alone, whatever the form.
class Sample {
 public:
  // The window rule: R and the batch are a key window while
  //   range(R ∪ batch) < |R| + |batch|, or
  //   range(R ∪ batch) < min(kSparseWindowSlots,
  //                          kWindowSlotsPerTuple · (|R| + |batch|)).
  // The passes over a window are O(range). While its counters stay within
  // 2^18 slots (2 MB) a window costs less than the runs path up to four
  // slots per tuple; a larger window must not outnumber its tuples, since
  // a sparse one costs more (DESIGN.md §8).
  static constexpr std::uint64_t kWindowSlotsPerTuple = 4;
  static constexpr std::uint64_t kSparseWindowSlots = std::uint64_t{1} << 18;

  Sample() = default;

  // Builds runs from unsorted values, counted or sorted once (SortOrCount).
  explicit Sample(std::vector<Value> values, ThreadPool* pool = nullptr);

  std::uint64_t size() const { return view().size(); }
  bool empty() const { return size() == 0; }

  // What validation reads of one batch, and what the next histogram reads
  // of R: the partition ranks (SortedView::PartitionRanks) of R before
  // the batch and of the batch at the separators passed to Add, both
  // sizes, and R's values at `quantile_ranks` once the batch is in.
  struct BatchRanks {
    // Set by the caller: ascending ranks of R with the batch, each below
    // its size (none, if no values are wanted).
    std::vector<std::uint64_t> quantile_ranks;
    std::vector<Value> quantiles;
    std::vector<std::uint64_t> before;
    std::vector<std::uint64_t> batch;
    std::uint64_t before_size = 0;
    std::uint64_t batch_size = 0;
  };

  // Adds the tuples of `pages` to the sample and fills `ranks` at
  // `separators` (non-decreasing; none when no histogram is validated)
  // and at ranks.quantile_ranks. The batch's key bounds fold over the
  // pages' bounds before any tuple is read, and decide the form, changing
  // R's (never its multiset) if they must. In a window the batch is
  // counted per slot and folded into R in one pass, which records its
  // ranks and reads the quantiles on the way; as runs it is decoded,
  // counted or sorted (SortOrCount, the pool serving a sort), ranked and
  // merged, and the quantiles are read from the merged runs.
  void Add(std::span<const Page* const> pages,
           std::span<const Value> separators, BatchRanks& ranks,
           ThreadPool* pool = nullptr);

  // Merges a sorted span or runs into the sample in one sequential pass
  // over the sample's runs and the batch's entries, leaving the sample as
  // runs: each value is appended, or added to the last run when it
  // repeats, so a sorted batch with duplicates needs no separate
  // run-length pass.
  void Merge(SortedView batch);

  SortedView view() const {
    return window_.empty() ? runs_.view() : SortedView::Window(base_, window_);
  }

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
  // Holds R as cumulative counts over the window `bounds`, which covers it.
  void ToWindow(KeyBounds bounds);
  // Holds R as runs.
  void ToRuns();

  // R: runs while window_ is empty, else window_[i] elements at or below
  // base_ + i.
  Runs runs_;
  Value base_ = 0;
  std::vector<std::uint64_t> window_;
  // A batch's per-slot counts over R's window, all zero between Adds; as
  // runs, its decoded tuples and SortOrCount's runs.
  std::vector<std::uint64_t> fresh_;
  std::vector<Value> batch_;
  Runs counted_;
};

}  // namespace equihist

#endif  // EQUIHIST_SAMPLING_SAMPLE_H_
