#include "distinct/frequency_profile.h"

#include <algorithm>

namespace equihist {

FrequencyProfile FrequencyProfile::FromSorted(SortedView sorted_sample) {
  FrequencyProfile profile;
  profile.sample_size_ = sorted_sample.size();
  std::vector<std::uint64_t>& counts = profile.counts_;
  sorted_sample.ForEachDistinct([&](Value, std::uint64_t multiplicity) {
    if (multiplicity >= counts.size()) counts.resize(multiplicity + 1, 0);
    ++counts[multiplicity];
    ++profile.distinct_;
  });
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
