#include "core/density.h"

#include "common/math.h"

namespace equihist {

double ComputeDensity(SortedView sorted_values) {
  const std::uint64_t n = sorted_values.size();
  if (n <= 1) return 0.0;
  KahanSum sq_sum;
  sorted_values.ForEachDistinct([&](Value, std::uint64_t run) {
    sq_sum.Add(static_cast<double>(run) * static_cast<double>(run));
  });
  const double nd = static_cast<double>(n);
  return (sq_sum.Value() - nd) / (nd * nd - nd);
}

double EstimateDensityFromSample(SortedView sorted_sample) {
  return ComputeDensity(sorted_sample);
}

}  // namespace equihist
