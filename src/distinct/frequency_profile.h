#ifndef EQUIHIST_DISTINCT_FREQUENCY_PROFILE_H_
#define EQUIHIST_DISTINCT_FREQUENCY_PROFILE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/distribution.h"
#include "data/sorted_view.h"

namespace equihist {

// The frequency-of-frequencies profile of a sample: f_j is the number of
// distinct values occurring exactly j times in the sample (Section 6.2).
// Every distinct-value estimator in this library is a function of this
// profile plus the population size n — a classical fact of the
// species-estimation literature.
class FrequencyProfile {
 public:
  FrequencyProfile() = default;

  // Builds the profile of a sorted sample.
  static FrequencyProfile FromSorted(SortedView sorted_sample);

  // Builds the profile of an unsorted sample (sorts a copy).
  static FrequencyProfile FromUnsorted(std::vector<Value> sample);

  // Sample size r = sum_j j * f_j.
  std::uint64_t sample_size() const { return sample_size_; }

  // Distinct values in the sample D = sum_j f_j.
  std::uint64_t distinct_in_sample() const { return distinct_; }

  // f_j, i.e. the number of distinct values seen exactly j times; 0 for
  // j = 0 or j beyond the largest observed multiplicity.
  std::uint64_t f(std::uint64_t j) const;

  // Largest j with f_j > 0 (0 for an empty profile).
  std::uint64_t max_multiplicity() const {
    return counts_.empty() ? 0 : counts_.size() - 1;
  }

  // Dense f_1..f_max as a span (index 0 unused, kept 0).
  std::span<const std::uint64_t> dense() const { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;  // counts_[j] = f_j, counts_[0] = 0
  std::uint64_t sample_size_ = 0;
  std::uint64_t distinct_ = 0;
};

}  // namespace equihist

#endif  // EQUIHIST_DISTINCT_FREQUENCY_PROFILE_H_
