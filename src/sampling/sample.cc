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
                std::span<std::uint64_t> counts) {
  for (std::size_t p = 0; p < pages.size(); ++p) {
    // The pages lie scattered over the table: fetching the page four ahead
    // cuts this loop's time by about 30% (DESIGN.md §8).
    if (p + kPrefetchPages < pages.size()) {
      pages[p + kPrefetchPages]->Prefetch();
    }
    pages[p]->AddCounts(base, counts);
  }
}

void FoldCounts(Value base, std::span<std::uint64_t> counts,
                std::span<std::uint64_t> window,
                std::span<const Value> separators,
                std::span<std::uint64_t> batch_ranks,
                std::span<std::uint64_t> before_ranks,
                std::span<const std::uint64_t> quantile_ranks,
                std::span<Value> quantiles) {
  const std::uint64_t last = window.size() - 1;
  std::uint64_t* const count = counts.data();
  std::uint64_t* const cumulative = window.data();
  std::uint64_t run = 0;  // the batch's elements in slots [0, i)
  std::size_t i = 0;
  // The next quantile and its rank; past the last one, a rank no count
  // exceeds.
  std::size_t q = 0;
  std::uint64_t next_rank = quantile_ranks.empty()
                                ? std::numeric_limits<std::uint64_t>::max()
                                : quantile_ranks[0];
  // Folds slots [i, end): the batch's running total onto the window. The
  // value at a rank is the key of the first slot counting beyond it.
  auto fold_to = [&](std::size_t end) {
    for (; i < end; ++i) {
      run += count[i];
      cumulative[i] += run;
      while (cumulative[i] > next_rank) [[unlikely]] {
        quantiles[q] =
            static_cast<Value>(static_cast<std::uint64_t>(base) + i);
        next_rank = ++q < quantile_ranks.size()
                        ? quantile_ranks[q]
                        : std::numeric_limits<std::uint64_t>::max();
      }
    }
  };
  for (std::size_t j = 0; j < separators.size(); ++j) {
    // The rank counts the keys up to s_j, or below s_j when the next
    // separator repeats it: none below the window, all past its end.
    const bool below = j + 1 < separators.size() &&
                       separators[j + 1] == separators[j];
    if (below ? separators[j] <= base : separators[j] < base) {
      batch_ranks[j] = 0;
      before_ranks[j] = 0;
      continue;
    }
    const std::uint64_t through = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(separators[j]) -
            static_cast<std::uint64_t>(base) - (below ? 1 : 0),
        last);
    fold_to(through + 1);
    batch_ranks[j] = run;
    before_ranks[j] = cumulative[through] - run;
  }
  fold_to(window.size());
  // One vectorized fill re-zeroes the counts faster than a store per slot
  // in the fold.
  std::fill(counts.begin(), counts.end(), 0);
}

}  // namespace sample_internal

Sample::Sample(std::vector<Value> values, ThreadPool* pool) {
  Runs counted;
  Merge(SortOrCount(values, counted, pool));
}

void Sample::Add(std::span<const Page* const> pages,
                 std::span<const Value> separators, BatchRanks& ranks,
                 ThreadPool* pool) {
  ranks.before.resize(separators.size());
  ranks.batch.resize(separators.size());
  ranks.quantiles.resize(ranks.quantile_ranks.size());
  ranks.before_size = size();
  std::uint64_t tuples = 0;
  KeyBounds bounds{.min = std::numeric_limits<Value>::max(),
                   .max = std::numeric_limits<Value>::min()};
  for (const Page* page : pages) {
    tuples += page->size();
    bounds.min = std::min(bounds.min, page->min_key());
    bounds.max = std::max(bounds.max, page->max_key());
  }
  ranks.batch_size = tuples;
  if (tuples == 0) {
    view().PartitionRanks(separators, ranks.before);
    std::fill(ranks.batch.begin(), ranks.batch.end(), 0);
    view().ValuesAtRanks(ranks.quantile_ranks, ranks.quantiles);
    return;
  }
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
    // fresh_ is all zeros between Adds, so growing it keeps it so.
    fresh_.resize(window_.size());
    sample_internal::CountPages(pages, base_, fresh_);
    sample_internal::FoldCounts(base_, fresh_, window_, separators,
                                ranks.batch, ranks.before,
                                ranks.quantile_ranks, ranks.quantiles);
    return;
  }

  if (!window_.empty()) ToRuns();
  batch_.resize(tuples);
  std::size_t first = 0;
  for (const Page* page : pages) {
    page->DecodeTo(std::span<Value>(batch_).subspan(first));
    first += page->size();
  }
  const SortedView batch = SortOrCount(batch_, counted_, pool);
  view().PartitionRanks(separators, ranks.before);
  batch.PartitionRanks(separators, ranks.batch);
  Merge(batch);
  view().ValuesAtRanks(ranks.quantile_ranks, ranks.quantiles);
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
