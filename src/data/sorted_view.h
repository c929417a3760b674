#ifndef EQUIHIST_DATA_SORTED_VIEW_H_
#define EQUIHIST_DATA_SORTED_VIEW_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

#include "data/distribution.h"

namespace equihist {

// A read-only sorted multiset of values, in one of two forms:
//   - a sorted span, one element per entry (equal values repeat);
//   - runs: ascending values, entry i standing for
//     cumulative[i] - cumulative[i-1] copies of values[i] (cumulative[i] is
//     the number of elements at or below values[i]).
// Every rank rule of the library is written once over this view: separator
// ranks, the run-aware partition, Definition 4's segments, density, the
// frequency profile and heavy hitters. A sorted span or vector converts to
// it implicitly, so span callers compile unchanged; the view does not own
// its storage, which must outlive it.
class SortedView {
 public:
  SortedView() = default;

  template <typename Sorted>
    requires std::convertible_to<const Sorted&, std::span<const Value>>
  SortedView(const Sorted& sorted)  // NOLINT(google-explicit-constructor)
      : values_(sorted) {}

  SortedView(std::span<const Value> values,
             std::span<const std::uint64_t> cumulative)
      : values_(values), cumulative_(cumulative) {}

  // Number of elements.
  std::uint64_t size() const {
    return cumulative_.empty() ? values_.size() : cumulative_.back();
  }
  bool empty() const { return values_.empty(); }

  // Entries: distinct values for runs, elements for a sorted span.
  std::span<const Value> values() const { return values_; }
  Value front() const { return values_.front(); }
  Value back() const { return values_.back(); }

  // Number of elements in entries [0, i).
  std::uint64_t CountBefore(std::size_t i) const {
    if (cumulative_.empty()) return i;
    return i == 0 ? 0 : cumulative_[i - 1];
  }

  // Number of elements v with v < x / v <= x.
  std::uint64_t CountLess(Value x) const {
    return CountBefore(static_cast<std::size_t>(
        std::lower_bound(values_.begin(), values_.end(), x) -
        values_.begin()));
  }
  std::uint64_t CountLessEqual(Value x) const {
    return CountBefore(static_cast<std::size_t>(
        std::upper_bound(values_.begin(), values_.end(), x) -
        values_.begin()));
  }

  // The element of 0-based rank `rank`. Precondition: rank < size().
  Value ValueAtRank(std::uint64_t rank) const {
    if (cumulative_.empty()) return values_[rank];
    return values_[static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), rank) -
        cumulative_.begin())];
  }

  // Calls fn(value, multiplicity) once per distinct value, ascending.
  // Neighbouring entries with equal values count as one value.
  template <typename Fn>
  void ForEachDistinct(Fn&& fn) const {
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < values_.size();) {
      std::size_t j = i + 1;
      while (j < values_.size() && values_[j] == values_[i]) ++j;
      const std::uint64_t through = CountBefore(j);
      fn(values_[i], through - before);
      before = through;
      i = j;
    }
  }

 private:
  std::span<const Value> values_;
  std::span<const std::uint64_t> cumulative_;
};

}  // namespace equihist

#endif  // EQUIHIST_DATA_SORTED_VIEW_H_
