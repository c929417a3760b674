#include "core/density.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace equihist {

double ComputeDensity(SortedView sorted_values) {
  DensityAccumulator density;
  sorted_values.ForEachSlot(
      [&](Value, std::uint64_t run) { density.Add(run); });
  return density.Density(sorted_values.size());
}

double EstimateDensityFromSample(SortedView sorted_sample) {
  return ComputeDensity(sorted_sample);
}

namespace {

// SummarizeSample counts profile entries below this in place; larger ones
// go through the walk's rare buffer. A small array costs little to
// allocate and zero on the 4,096-tuple samples of an incremental refresh,
// where 4,096 counters (32 KB) cost more than the walk.
constexpr std::uint64_t kProfileInPlace = 256;

}  // namespace

SampleStatistics SummarizeSample(SortedView sorted, std::uint64_t buckets,
                                 double scale, bool with_profile) {
  const std::uint64_t r = sorted.size();
  const double ideal = static_cast<double>(r) / static_cast<double>(buckets);
  // The profile counts multiplicities below `in_place` in place and those
  // from it on in counts[in_place], which a sample of r tuples holds
  // fewer than r / in_place of.
  const std::uint64_t in_place =
      with_profile ? std::min(r, kProfileInPlace) + 1 : 1;
  // A slot is rare when its multiplicity reaches `rare`: every heavy
  // hitter (above `ideal`, hence at least r / buckets) and, with the
  // profile, every multiplicity not counted in place. Each rare slot holds
  // at least `rare` of the r elements, so at most r / rare slots are rare.
  const std::uint64_t heavy =
      buckets == 0 ? std::numeric_limits<std::uint64_t>::max() : r / buckets;
  const std::uint64_t rare = std::max<std::uint64_t>(
      1, with_profile ? std::min(in_place, heavy) : heavy);
  std::vector<std::uint64_t> counts(in_place + 1, 0);
  std::vector<Value> rare_values(r / rare + 1);
  std::vector<std::uint64_t> rare_multiplicities(r / rare + 1);

  // One walk with no call in it, so that its sums stay in registers: each
  // slot writes itself to the next rare entry, which only a rare slot
  // keeps (SortedView::ForEachSlot passes a window's empty slots, to which
  // every step is a no-op).
  std::uint64_t* const f = counts.data();
  Value* const rare_value = rare_values.data();
  std::uint64_t* const rare_multiplicity = rare_multiplicities.data();
  DensityAccumulator density;
  std::size_t rare_count = 0;
  sorted.ForEachSlot([&](Value value, std::uint64_t multiplicity) {
    density.Add(multiplicity);
    if (with_profile) ++f[std::min(multiplicity, in_place)];
    rare_value[rare_count] = value;
    rare_multiplicity[rare_count] = multiplicity;
    rare_count += multiplicity >= rare ? 1 : 0;
  });

  SampleStatistics stats;
  stats.density = density.Density(r);
  std::vector<std::uint64_t> large;
  for (std::size_t q = 0; q < rare_count; ++q) {
    const std::uint64_t multiplicity = rare_multiplicity[q];
    if (with_profile && multiplicity >= in_place) large.push_back(multiplicity);
    if (static_cast<double>(multiplicity) > ideal) {
      const auto scaled = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(multiplicity) * scale));
      stats.heavy_hitters.push_back(CompressedHistogram::Singleton{
          rare_value[q], std::max<std::uint64_t>(scaled, 1)});
    }
  }
  if (with_profile) {
    counts.resize(in_place);
    stats.profile = FrequencyProfile::FromCounts(std::move(counts), large, r);
  }
  return stats;
}

}  // namespace equihist
