#include "sampling/sample.h"

#include <algorithm>
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

}  // namespace sample_internal

Sample::Sample(std::vector<Value> values, ThreadPool* pool) {
  Runs counted;
  Merge(SortOrCount(values, counted, pool));
}

void Sample::Merge(SortedView batch) {
  if (batch.empty()) return;
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
