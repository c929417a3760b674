#include "core/density.h"

#include <algorithm>
#include <cmath>

namespace equihist {

double ComputeDensity(SortedView sorted_values) {
  DensityAccumulator density;
  sorted_values.ForEachDistinct(
      [&](Value, std::uint64_t run) { density.Add(run); });
  return density.Density(sorted_values.size());
}

double EstimateDensityFromSample(SortedView sorted_sample) {
  return ComputeDensity(sorted_sample);
}

double DensityAccumulator::Density(std::uint64_t n) const {
  if (n <= 1) return 0.0;
  const double nd = static_cast<double>(n);
  return (sq_sum_.Value() - nd) / (nd * nd - nd);
}

SampleStatistics SummarizeSample(SortedView sorted, std::uint64_t buckets,
                                 double scale, bool with_profile) {
  SampleStatistics stats;
  DensityAccumulator density;
  const double ideal =
      static_cast<double>(sorted.size()) / static_cast<double>(buckets);
  sorted.ForEachDistinct([&](Value value, std::uint64_t multiplicity) {
    density.Add(multiplicity);
    if (with_profile) stats.profile.Add(multiplicity);
    if (static_cast<double>(multiplicity) > ideal) {
      const auto scaled = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(multiplicity) * scale));
      stats.heavy_hitters.push_back(CompressedHistogram::Singleton{
          value, std::max<std::uint64_t>(scaled, 1)});
    }
  });
  stats.density = density.Density(sorted.size());
  return stats;
}

}  // namespace equihist
