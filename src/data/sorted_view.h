#ifndef EQUIHIST_DATA_SORTED_VIEW_H_
#define EQUIHIST_DATA_SORTED_VIEW_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

#include "data/distribution.h"

namespace equihist {

// A read-only sorted multiset of values, in one of three forms:
//   - a sorted span, one element per entry (equal values repeat);
//   - runs: ascending values, entry i standing for
//     cumulative[i] - cumulative[i-1] copies of values[i] (cumulative[i] is
//     the number of elements at or below values[i]);
//   - a key window: cumulative counts over the consecutive keys from a
//     base, cumulative[i] being the number of elements at or below
//     base + i. A slot may be empty (equal to the one before it), at the
//     edges too. Rank queries are an index lookup.
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

  // The key window over base .. base + cumulative.size() - 1. Precondition:
  // cumulative is non-empty, non-decreasing, and its last key fits a Value.
  static SortedView Window(Value base,
                           std::span<const std::uint64_t> cumulative) {
    SortedView view;
    view.cumulative_ = cumulative;
    view.base_ = base;
    return view;
  }

  // Number of elements.
  std::uint64_t size() const {
    return cumulative_.empty() ? values_.size() : cumulative_.back();
  }
  bool empty() const { return size() == 0; }

  // Entries: distinct values for runs, elements for a sorted span, none
  // for a window.
  std::span<const Value> values() const { return values_; }
  bool is_window() const { return values_.empty() && !cumulative_.empty(); }

  // The smallest and largest element. Precondition: !empty().
  Value front() const {
    if (!is_window()) return values_.front();
    return Key(static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), 0) -
        cumulative_.begin()));
  }
  Value back() const {
    if (!is_window()) return values_.back();
    return Key(static_cast<std::size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), size()) -
        cumulative_.begin()));
  }

  // Number of elements in entries [0, i). Not for a window.
  std::uint64_t CountBefore(std::size_t i) const {
    if (cumulative_.empty()) return i;
    return i == 0 ? 0 : cumulative_[i - 1];
  }

  // Number of elements v with v < x / v <= x. A window decides whether x
  // lies below or above it by comparing keys, so the extreme keys of the
  // domain stay exact.
  std::uint64_t CountLess(Value x) const {
    if (is_window()) {
      if (x <= base_) return 0;
      if (x > Key(cumulative_.size() - 1)) return size();
      return cumulative_[Offset(x) - 1];
    }
    return CountBefore(static_cast<std::size_t>(
        std::lower_bound(values_.begin(), values_.end(), x) -
        values_.begin()));
  }
  std::uint64_t CountLessEqual(Value x) const {
    if (is_window()) {
      if (x < base_) return 0;
      if (x >= Key(cumulative_.size() - 1)) return size();
      return cumulative_[Offset(x)];
    }
    return CountBefore(static_cast<std::size_t>(
        std::upper_bound(values_.begin(), values_.end(), x) -
        values_.begin()));
  }

  // The element of 0-based rank `rank`. Precondition: rank < size().
  Value ValueAtRank(std::uint64_t rank) const {
    if (cumulative_.empty()) return values_[rank];
    const auto i = static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), rank) -
        cumulative_.begin());
    return is_window() ? Key(i) : values_[i];
  }

  // ValueAtRank of each of `ranks` into `out`, in one forward walk over the
  // counts: each search gallops (1, 2, 4, ... entries) from where the one
  // before ended, then binary-searches the last step. k ascending ranks
  // over e entries cost O(k log(e / k)) probes, each near the last.
  // Preconditions: ranks ascend (repeats allowed), each < size(), and
  // out.size() == ranks.size().
  void ValuesAtRanks(std::span<const std::uint64_t> ranks,
                     std::span<Value> out) const {
    if (cumulative_.empty()) {
      for (std::size_t q = 0; q < ranks.size(); ++q) {
        out[q] = values_[ranks[q]];
      }
      return;
    }
    const std::size_t entries = cumulative_.size();
    const auto first = cumulative_.begin();
    std::size_t i = 0;  // the first entry counting beyond the last rank
    for (std::size_t q = 0; q < ranks.size(); ++q) {
      const std::uint64_t rank = ranks[q];
      // Entries before lo count at most rank; the one at hi, beyond it.
      std::size_t lo = i;
      std::size_t hi = i;
      for (std::size_t step = 1; hi < entries && cumulative_[hi] <= rank;
           step *= 2) {
        lo = hi + 1;
        hi += step;
      }
      i = static_cast<std::size_t>(
          std::upper_bound(first + static_cast<std::ptrdiff_t>(lo),
                           first + static_cast<std::ptrdiff_t>(
                                       std::min(hi, entries)),
                           rank) -
          first);
      out[q] = is_window() ? Key(i) : values_[i];
    }
  }

  // The run-aware partition by non-decreasing `separators`, the rule of
  // Histogram::BucketIndexForValue, as cumulative counts: out[j] elements
  // fall in buckets 0..j. That is CountLess(s_j) when s_{j+1} repeats s_j,
  // since a repeated value's mass goes to the last bucket of its run, and
  // CountLessEqual(s_j) otherwise. Every partition and validation metric
  // reads a multiset through these ranks. Precondition: out.size() ==
  // separators.size().
  void PartitionRanks(std::span<const Value> separators,
                      std::span<std::uint64_t> out) const {
    for (std::size_t j = 0; j < separators.size(); ++j) {
      const bool run_continues = j + 1 < separators.size() &&
                                 separators[j + 1] == separators[j];
      out[j] = run_continues ? CountLess(separators[j])
                             : CountLessEqual(separators[j]);
    }
  }

  // Calls fn(value, multiplicity) once per distinct value, ascending.
  // Neighbouring entries with equal values count as one value; a window's
  // empty slots are skipped.
  template <typename Fn>
  void ForEachDistinct(Fn&& fn) const {
    if (is_window()) {
      ForEachSlot([&](Value value, std::uint64_t multiplicity) {
        if (multiplicity != 0) fn(value, multiplicity);
      });
      return;
    }
    ForEachSlot(fn);
  }

  // ForEachDistinct, but a window's empty slots are passed too, with
  // multiplicity 0. For an fn to which 0 is a no-op, the window walk then
  // has no branch on the data: in a sparse window, whether a slot is
  // empty is as good as random.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    std::uint64_t before = 0;
    if (is_window()) {
      for (std::size_t i = 0; i < cumulative_.size(); ++i) {
        fn(Key(i), cumulative_[i] - before);
        before = cumulative_[i];
      }
      return;
    }
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
  // A window's key in slot i, and the slot of key x (base <= x).
  Value Key(std::size_t i) const {
    return static_cast<Value>(static_cast<std::uint64_t>(base_) + i);
  }
  std::uint64_t Offset(Value x) const {
    return static_cast<std::uint64_t>(x) - static_cast<std::uint64_t>(base_);
  }

  std::span<const Value> values_;
  std::span<const std::uint64_t> cumulative_;
  Value base_ = 0;  // a window's first key
};

}  // namespace equihist

#endif  // EQUIHIST_DATA_SORTED_VIEW_H_
