#include "sampling/row_sampler.h"

#include <cassert>
#include <unordered_set>

namespace equihist {

std::vector<Value> SampleRowsWithReplacement(std::span<const Value> values,
                                             std::uint64_t r, Rng& rng) {
  assert(!values.empty());
  std::vector<Value> sample;
  sample.reserve(r);
  for (std::uint64_t i = 0; i < r; ++i) {
    sample.push_back(values[rng.NextBounded(values.size())]);
  }
  return sample;
}

Result<std::vector<Value>> SampleRowsWithoutReplacement(
    std::span<const Value> values, std::uint64_t r, Rng& rng) {
  const std::uint64_t n = values.size();
  if (r > n) {
    return Status::InvalidArgument(
        "sample size exceeds population for sampling without replacement");
  }
  std::vector<Value> sample;
  sample.reserve(r);
  if (r == 0) return sample;

  if (r <= n / 64) {
    // Floyd's algorithm: O(r) expected time, O(r) extra space.
    std::unordered_set<std::uint64_t> chosen;
    chosen.reserve(r * 2);
    for (std::uint64_t j = n - r; j < n; ++j) {
      const std::uint64_t t = rng.NextBounded(j + 1);
      const std::uint64_t pick = chosen.insert(t).second ? t : j;
      if (pick != t) chosen.insert(pick);
      sample.push_back(values[pick]);
    }
  } else {
    // Sequential selection: one pass, exact without-replacement semantics.
    std::uint64_t remaining_population = n;
    std::uint64_t remaining_sample = r;
    for (std::uint64_t i = 0; i < n && remaining_sample > 0; ++i) {
      // Include values[i] with probability remaining_sample / remaining_population.
      if (rng.NextBounded(remaining_population) < remaining_sample) {
        sample.push_back(values[i]);
        --remaining_sample;
      }
      --remaining_population;
    }
  }
  return sample;
}

Result<std::vector<Value>> SampleRowsBernoulli(std::span<const Value> values,
                                               double p, Rng& rng) {
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("Bernoulli probability must be in [0, 1]");
  }
  std::vector<Value> sample;
  sample.reserve(static_cast<std::size_t>(p * static_cast<double>(values.size())));
  for (Value v : values) {
    if (rng.NextBernoulli(p)) sample.push_back(v);
  }
  return sample;
}

}  // namespace equihist
