#include "distinct/frequency_profile.h"

#include <algorithm>

namespace equihist {

FrequencyProfile FrequencyProfile::FromSorted(SortedView sorted_sample) {
  FrequencyProfile profile;
  sorted_sample.ForEachDistinct(
      [&](Value, std::uint64_t multiplicity) { profile.Add(multiplicity); });
  return profile;
}

void FrequencyProfile::Add(std::uint64_t multiplicity) {
  if (multiplicity >= counts_.size()) counts_.resize(multiplicity + 1, 0);
  ++counts_[multiplicity];
  ++distinct_;
  sample_size_ += multiplicity;
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
