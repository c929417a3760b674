#include "sampling/sample.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace equihist {

SortedView SortOrCount(std::vector<Value>& batch, Runs& counted,
                       ThreadPool* pool) {
  if (batch.empty()) return {};
  const KeyBounds bounds = ScanKeyBounds(batch.data(), batch.size());
  if (bounds.range() < batch.size()) {
    sample_internal::CountRuns(batch, bounds, counted);
    return counted.view();
  }
  ParallelSort(batch, bounds, pool);
  return batch;
}

namespace {

// How many pages ahead the count loop prefetches.
constexpr std::size_t kPrefetchPages = 4;

// c ? x : y without a branch. Whether the next merged value comes from the
// sample or the batch is as good as random, and a mispredicted branch per
// element costs more than computing both sides.
template <typename T>
T Select(bool c, T x, T y) {
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(c);
  return static_cast<T>((static_cast<std::uint64_t>(x) & mask) |
                        (static_cast<std::uint64_t>(y) & ~mask));
}

}  // namespace

namespace sample_internal {

void CountRuns(std::span<const Value> batch, KeyBounds bounds, Runs& out) {
  // From SortOrCount, range < batch.size(): range + 1 cannot overflow and
  // the counters take no more memory than a radix sort's scratch buffer.
  const std::uint64_t range = bounds.range();
  const auto min = static_cast<std::uint64_t>(bounds.min);
  std::vector<std::uint64_t> counts(range + 1, 0);
  for (const Value v : batch) ++counts[static_cast<std::uint64_t>(v) - min];

  out.values.clear();
  out.cumulative.clear();
  out.values.reserve(range + 1);
  out.cumulative.reserve(range + 1);
  std::uint64_t total = 0;
  for (std::uint64_t offset = 0; offset <= range; ++offset) {
    if (counts[offset] == 0) continue;
    total += counts[offset];
    out.values.push_back(static_cast<Value>(min + offset));
    out.cumulative.push_back(total);
  }
}

void CountPages(std::span<const Page* const> pages, Value base,
                std::vector<std::uint64_t>& cumulative) {
  std::fill(cumulative.begin(), cumulative.end(), 0);
  for (std::size_t p = 0; p < pages.size(); ++p) {
    // The pages lie scattered over the table: fetching the page four ahead
    // cuts this loop's time by about 30% (DESIGN.md §8).
    if (p + kPrefetchPages < pages.size()) {
      pages[p + kPrefetchPages]->Prefetch();
    }
    pages[p]->AddCounts(base, cumulative);
  }
  std::partial_sum(cumulative.begin(), cumulative.end(), cumulative.begin());
}

}  // namespace sample_internal

Sample::Sample(std::vector<Value> values, ThreadPool* pool) {
  Runs counted;
  Merge(SortOrCount(values, counted, pool));
}

SortedView Sample::Stage(std::span<const Page* const> pages,
                         ThreadPool* pool) {
  staged_ = {};
  std::uint64_t tuples = 0;
  KeyBounds bounds{.min = std::numeric_limits<Value>::max(),
                   .max = std::numeric_limits<Value>::min()};
  for (const Page* page : pages) {
    tuples += page->size();
    bounds.min = std::min(bounds.min, page->min_key());
    bounds.max = std::max(bounds.max, page->max_key());
  }
  if (tuples == 0) return staged_;
  if (!window_.empty()) {
    bounds.min = std::min(bounds.min, base_);
    bounds.max = std::max(
        bounds.max, static_cast<Value>(static_cast<std::uint64_t>(base_) +
                                       (window_.size() - 1)));
  } else if (!empty()) {
    bounds.min = std::min(bounds.min, runs_.values.front());
    bounds.max = std::max(bounds.max, runs_.values.back());
  }

  // The window rule (sample.h), with no product to overflow.
  const std::uint64_t range = bounds.range();
  const std::uint64_t count = size() + tuples;
  if (range < count || (range < kSparseWindowSlots &&
                        range / kWindowSlotsPerTuple < count)) {
    // The bounds cover R's window, so they differ from it only if wider.
    if (range + 1 != window_.size()) ToWindow(bounds);
    fresh_.resize(window_.size());
    sample_internal::CountPages(pages, base_, fresh_);
    staged_ = SortedView::Window(base_, fresh_);
    return staged_;
  }

  if (!window_.empty()) ToRuns();
  batch_.resize(tuples);
  std::size_t first = 0;
  for (const Page* page : pages) {
    page->DecodeTo(std::span<Value>(batch_).subspan(first));
    first += page->size();
  }
  staged_ = SortOrCount(batch_, counted_, pool);
  return staged_;
}

void Sample::Commit() {
  if (staged_.is_window()) {
    for (std::size_t i = 0; i < window_.size(); ++i) window_[i] += fresh_[i];
  } else {
    Merge(staged_);
  }
  staged_ = {};
}

void Sample::ToWindow(KeyBounds bounds) {
  const std::uint64_t slots = bounds.range() + 1;
  if (!window_.empty()) {
    // Widen in place: zeros below the old window, its total above.
    const std::uint64_t total = window_.back();
    const auto old_end = static_cast<std::ptrdiff_t>(window_.size());
    const auto shift = static_cast<std::ptrdiff_t>(
        static_cast<std::uint64_t>(base_) -
        static_cast<std::uint64_t>(bounds.min));
    window_.resize(slots);
    const auto first = window_.begin();
    std::copy_backward(first, first + old_end, first + shift + old_end);
    std::fill(first, first + shift, 0);
    std::fill(first + shift + old_end, window_.end(), total);
    base_ = bounds.min;
    return;
  }
  window_.assign(slots, 0);
  const auto base = static_cast<std::uint64_t>(bounds.min);
  runs_.view().ForEachDistinct([&](Value value, std::uint64_t multiplicity) {
    window_[static_cast<std::uint64_t>(value) - base] = multiplicity;
  });
  std::partial_sum(window_.begin(), window_.end(), window_.begin());
  runs_ = {};
  base_ = bounds.min;
}

void Sample::ToRuns() {
  Runs runs;
  std::uint64_t total = 0;
  view().ForEachDistinct([&](Value value, std::uint64_t multiplicity) {
    total += multiplicity;
    runs.values.push_back(value);
    runs.cumulative.push_back(total);
  });
  runs_ = std::move(runs);
  window_.clear();
}

void Sample::Merge(SortedView batch) {
  assert(!batch.is_window());
  if (batch.empty()) return;
  if (!window_.empty()) ToRuns();
  const std::span<const Value> a = runs_.values;
  const std::span<const std::uint64_t> a_cum = runs_.cumulative;
  const std::span<const Value> b = batch.values();

  Runs merged;
  merged.values.resize(a.size() + b.size());
  merged.cumulative.resize(a.size() + b.size());
  Value* out_values = merged.values.data();
  std::uint64_t* out_cum = merged.cumulative.data();
  std::size_t out = 0;
  // Elements taken so far from the sample and from the batch.
  std::uint64_t a_done = 0;
  std::uint64_t b_done = 0;
  // The last value written; it starts one bit away from the first value,
  // so the first write always opens a run.
  Value last = (a.empty() ? b[0] : std::min(a[0], b[0])) ^ 1;
  // Writes v through a_done + b_done elements: a new run, or the last one
  // again when v repeats.
  auto emit = [&](Value v) {
    const std::size_t slot = out - (v == last ? 1 : 0);
    out_values[slot] = v;
    out_cum[slot] = a_done + b_done;
    out = slot + 1;
    last = v;
  };

  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const bool take_b = b[j] < a[i];  // ties take the sample's run first
    a_done = Select(take_b, a_done, a_cum[i]);
    b_done = Select(take_b, batch.CountBefore(j + 1), b_done);
    emit(Select(take_b, b[j], a[i]));
    i += static_cast<std::size_t>(!take_b);
    j += static_cast<std::size_t>(take_b);
  }
  for (; i < a.size(); ++i) {
    a_done = a_cum[i];
    emit(a[i]);
  }
  for (; j < b.size(); ++j) {
    b_done = batch.CountBefore(j + 1);
    emit(b[j]);
  }

  merged.values.resize(out);
  merged.cumulative.resize(out);
  runs_ = std::move(merged);
}

}  // namespace equihist
