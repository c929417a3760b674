#include "distinct/frequency_profile.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace equihist {

FrequencyProfile FrequencyProfile::FromSorted(SortedView sorted_sample) {
  std::vector<std::uint64_t> counts(1, 0);
  sorted_sample.ForEachDistinct([&](Value, std::uint64_t multiplicity) {
    if (multiplicity >= counts.size()) counts.resize(multiplicity + 1, 0);
    ++counts[multiplicity];
  });
  return FromCounts(std::move(counts), {}, sorted_sample.size());
}

FrequencyProfile FrequencyProfile::FromCounts(
    std::vector<std::uint64_t> counts, std::span<const std::uint64_t> large,
    std::uint64_t r) {
  FrequencyProfile profile;
  profile.sample_size_ = r;
  if (!counts.empty()) counts[0] = 0;
  profile.distinct_ =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}) +
      large.size();
  if (large.empty()) {
    // Trim to f_0..f_max, or to nothing when no value was counted.
    const auto last = std::find_if(counts.rbegin(), counts.rend(),
                                   [](std::uint64_t f) { return f != 0; });
    counts.resize(static_cast<std::size_t>(counts.rend() - last));
  } else {
    counts.resize(*std::max_element(large.begin(), large.end()) + 1, 0);
    for (const std::uint64_t multiplicity : large) ++counts[multiplicity];
  }
  profile.counts_ = std::move(counts);
  return profile;
}

FrequencyProfile FrequencyProfile::FromUnsorted(std::vector<Value> sample) {
  std::sort(sample.begin(), sample.end());
  return FromSorted(sample);
}

std::uint64_t FrequencyProfile::f(std::uint64_t j) const {
  if (j == 0 || j >= counts_.size()) return 0;
  return counts_[j];
}

}  // namespace equihist
