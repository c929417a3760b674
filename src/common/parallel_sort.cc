#include "common/parallel_sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

namespace equihist {

using parallel_internal::kMinParallelElements;
using parallel_internal::kRadixMinElements;

namespace {

// Merge-path split: the number of elements to take from `a` so that the
// first `t` elements of merge(a, b) are a[0..i) and b[0..t-i).
std::size_t MergeSplit(const std::int64_t* a, std::size_t na,
                       const std::int64_t* b, std::size_t nb, std::size_t t) {
  std::size_t lo = t > nb ? t - nb : 0;
  std::size_t hi = std::min(t, na);
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    const std::size_t j = t - i;
    if (j > 0 && a[i] < b[j - 1]) {
      lo = i + 1;
    } else {
      hi = i;
    }
  }
  return lo;
}

// std::sort below the radix cutoff, the radix sort from it on, with the
// caller's key bounds or, without them, the run's own.
void SortRun(std::int64_t* data, std::size_t n, std::int64_t* scratch,
             const std::optional<KeyBounds>& key_bounds) {
  if (n < kRadixMinElements) {
    std::sort(data, data + n);
  } else {
    parallel_internal::RadixSort(
        data, n, scratch, key_bounds ? *key_bounds : ScanKeyBounds(data, n));
  }
}

}  // namespace

KeyBounds ScanKeyBounds(const std::int64_t* data, std::size_t n) {
  // A plain min/max loop compiles without data-dependent branches;
  // std::minmax_element's branches mispredict on unsorted keys and made the
  // scan 3.7x slower on 1M keys.
  std::int64_t lo = data[0];
  std::int64_t hi = data[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  return KeyBounds{.min = lo, .max = hi};
}

namespace parallel_internal {

void RadixSort(std::int64_t* data, std::size_t n, std::int64_t* scratch,
               KeyBounds bounds) {
  if (n < 2) return;
  // Unsigned subtraction gives every x its exact offset above the minimum,
  // even where max - min overflows int64, so the keys order like the values.
  const auto min = static_cast<std::uint64_t>(bounds.min);
  const int passes =
      static_cast<int>((std::bit_width(bounds.range()) + 7) / 8);

  // One read of the input counts the digits of every pass.
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t key = static_cast<std::uint64_t>(data[i]) - min;
    for (int p = 0; p < passes; ++p, key >>= 8) ++counts[p][key & 0xFF];
  }

  std::int64_t* src = data;
  std::int64_t* dst = scratch;
  for (int p = 0; p < passes; ++p) {
    const int shift = 8 * p;
    const auto digit = [min, shift](std::int64_t x) {
      return ((static_cast<std::uint64_t>(x) - min) >> shift) & 0xFF;
    };
    std::array<std::size_t, 256>& next = counts[p];
    // Every element has the same digit: the pass would move nothing.
    if (next[digit(src[0])] == n) continue;
    std::size_t offset = 0;
    for (std::size_t& slot : next) {
      const std::size_t count = slot;
      slot = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < n; ++i) dst[next[digit(src[i])]++] = src[i];
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);
}

}  // namespace parallel_internal

void ParallelMergeSorted(const std::int64_t* a, std::size_t na,
                         const std::int64_t* b, std::size_t nb,
                         std::int64_t* out, ThreadPool* pool) {
  const std::size_t total = na + nb;
  const std::size_t parts = pool == nullptr ? 1 : pool->size();
  if (parts <= 1 || total < kMinParallelElements) {
    std::merge(a, a + na, b, b + nb, out);
    return;
  }
  std::vector<std::size_t> ai(parts + 1), bi(parts + 1);
  ai[0] = 0;
  bi[0] = 0;
  ai[parts] = na;
  bi[parts] = nb;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t t = total * p / parts;
    ai[p] = MergeSplit(a, na, b, nb, t);
    bi[p] = t - ai[p];
  }
  pool->ParallelFor(0, parts, parts,
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      for (std::size_t p = lo; p < hi; ++p) {
                        std::merge(a + ai[p], a + ai[p + 1], b + bi[p],
                                   b + bi[p + 1], out + ai[p] + bi[p]);
                      }
                    });
}

namespace {

// Sequential plan: one radix sort. Parallel plan: pool-sized runs, each
// radix-sorted in its own slice of the scratch buffer, then pairwise
// parallel merges (each merge itself split along the merge path) that
// ping-pong between `v` and the same buffer.
void Sort(std::vector<std::int64_t>& v,
          const std::optional<KeyBounds>& key_bounds, ThreadPool* pool) {
  const std::size_t n = v.size();
  if (n < kRadixMinElements) {
    std::sort(v.begin(), v.end());
    return;
  }
  std::vector<std::int64_t> scratch(n);
  const std::size_t width = pool == nullptr ? 1 : pool->size();
  if (width <= 1 || n < kMinParallelElements) {
    SortRun(v.data(), n, scratch.data(), key_bounds);
    return;
  }

  const std::size_t runs = width;
  std::vector<std::size_t> bounds(runs + 1);
  for (std::size_t r = 0; r <= runs; ++r) bounds[r] = n * r / runs;
  pool->ParallelFor(0, runs, runs,
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      for (std::size_t r = lo; r < hi; ++r) {
                        SortRun(v.data() + bounds[r], bounds[r + 1] - bounds[r],
                                scratch.data() + bounds[r], key_bounds);
                      }
                    });

  std::int64_t* src = v.data();
  std::int64_t* dst = scratch.data();
  while (bounds.size() > 2) {
    std::vector<std::size_t> next;
    next.reserve(bounds.size() / 2 + 2);
    next.push_back(0);
    const std::size_t num_runs = bounds.size() - 1;
    std::size_t r = 0;
    for (; r + 1 < num_runs; r += 2) {
      const std::size_t a0 = bounds[r], a1 = bounds[r + 1],
                        b1 = bounds[r + 2];
      ParallelMergeSorted(src + a0, a1 - a0, src + a1, b1 - a1, dst + a0,
                          pool);
      next.push_back(b1);
    }
    if (r < num_runs) {  // odd run carries over unmerged
      std::copy(src + bounds[r], src + bounds[r + 1], dst + bounds[r]);
      next.push_back(bounds[r + 1]);
    }
    std::swap(src, dst);
    bounds = std::move(next);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

}  // namespace

void ParallelSort(std::vector<std::int64_t>& v, ThreadPool* pool) {
  Sort(v, std::nullopt, pool);
}

void ParallelSort(std::vector<std::int64_t>& v, KeyBounds bounds,
                  ThreadPool* pool) {
  Sort(v, bounds, pool);
}

}  // namespace equihist
