#ifndef EQUIHIST_COMMON_PARALLEL_SORT_H_
#define EQUIHIST_COMMON_PARALLEL_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"

namespace equihist {

// Sorting primitives for the sample pipeline, over 64-bit signed keys (the
// library's `Value`). All functions produce output identical to their
// sequential std:: counterparts for any thread count (sorting a multiset of
// scalars has a unique result), so the histogram engine stays
// bit-reproducible however it is scheduled. With a null/size-1 pool or small
// inputs they fall back to the sequential path.

// The smallest and largest key of a non-empty range.
struct KeyBounds {
  std::int64_t min = 0;
  std::int64_t max = 0;

  // max - min taken as unsigned: exact even where it overflows int64 (a
  // range holding INT64_MIN and INT64_MAX is 2^64 - 1).
  std::uint64_t range() const {
    return static_cast<std::uint64_t>(max) - static_cast<std::uint64_t>(min);
  }
};

// Bounds of data[0, n) in one scan. Precondition: n > 0.
KeyBounds ScanKeyBounds(const std::int64_t* data, std::size_t n);

namespace parallel_internal {

// Inputs below this size are sorted/merged sequentially: fork-join overhead
// beats the win on small data.
inline constexpr std::size_t kMinParallelElements = 1u << 14;

// Runs below this size are sorted with std::sort: the radix sort's fixed
// cost (a min/max scan and a 256-bucket histogram per digit) loses to a
// comparison sort on short runs of full-width keys (bench_micro
// BM_ParallelSort: 1.4x slower at 1024 elements, on par at 2048).
inline constexpr std::size_t kRadixMinElements = 1u << 11;

// LSD radix sort of data[0, n): 8-bit digits of the key x - bounds.min
// taken as unsigned, with as many passes as bounds.range() needs (two below
// 2^16, at most eight). `bounds` must hold every element; the caller has
// scanned them already. A pass whose digit is the same for every element is
// skipped. `scratch` holds n elements; the sorted result ends in `data`. No
// size cutoff: ParallelSort applies kRadixMinElements.
void RadixSort(std::int64_t* data, std::size_t n, std::int64_t* scratch,
               KeyBounds bounds);

}  // namespace parallel_internal

// Merges two sorted ranges into `out` (which must hold na + nb elements),
// splitting the output into pool-sized chunks along the merge path.
void ParallelMergeSorted(const std::int64_t* a, std::size_t na,
                         const std::int64_t* b, std::size_t nb,
                         std::int64_t* out, ThreadPool* pool);

// Sorts `v` ascending using one scratch buffer of v.size() elements.
// Sequential plan: one radix sort. Parallel plan: pool-sized runs, each
// radix-sorted in its own slice of the scratch buffer, then pairwise
// parallel merges (each merge itself split along the merge path) that
// ping-pong between `v` and the same buffer.
void ParallelSort(std::vector<std::int64_t>& v, ThreadPool* pool);

// The same sort when the caller has already scanned v's bounds: the radix
// sort takes them instead of scanning again.
void ParallelSort(std::vector<std::int64_t>& v, KeyBounds bounds,
                  ThreadPool* pool);

}  // namespace equihist

#endif  // EQUIHIST_COMMON_PARALLEL_SORT_H_
