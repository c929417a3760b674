#include "core/density.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace equihist {

double ComputeDensity(SortedView sorted_values) {
  DensityAccumulator density;
  sorted_values.ForEachSlot(
      [&](Value, std::uint64_t run) { density.Add(run); });
  return density.Density(sorted_values.size());
}

SampleStatistics SummarizeSample(SortedView sorted, std::uint64_t buckets,
                                 double scale) {
  const std::uint64_t r = sorted.size();
  const double ideal = static_cast<double>(r) / static_cast<double>(buckets);
  // A slot is rare when its multiplicity reaches `rare`: every heavy
  // hitter is above `ideal`, hence at least r / buckets. Each rare slot
  // holds at least `rare` of the r elements, so at most r / rare slots are
  // rare.
  const std::uint64_t rare = std::max<std::uint64_t>(
      1, buckets == 0 ? std::numeric_limits<std::uint64_t>::max()
                      : r / buckets);
  std::vector<CompressedHistogram::Singleton> rare_slots(r / rare + 1);

  // One walk with no call in it, so that its sums stay in registers: each
  // slot writes itself to the next rare entry, which only a rare slot
  // keeps (SortedView::ForEachSlot passes a window's empty slots, to which
  // every step is a no-op). The entries are (value, multiplicity) pairs
  // behind one pointer: with a pointer per field and an index, GCC 12 ran
  // out of registers and kept D and f_1 in memory.
  CompressedHistogram::Singleton* next = rare_slots.data();
  DensityAccumulator density;
  std::uint64_t distinct = 0;
  std::uint64_t singletons = 0;
  sorted.ForEachSlot([&](Value value, std::uint64_t multiplicity) {
    density.Add(multiplicity);
    distinct += multiplicity != 0 ? 1 : 0;
    singletons += multiplicity == 1 ? 1 : 0;
    *next = {value, multiplicity};
    next += multiplicity >= rare ? 1 : 0;
  });

  SampleStatistics stats;
  stats.density = density.Density(r);
  stats.distinct = distinct;
  stats.singletons = singletons;
  for (const CompressedHistogram::Singleton* slot = rare_slots.data();
       slot != next; ++slot) {
    if (static_cast<double>(slot->count) > ideal) {
      const auto scaled = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(slot->count) * scale));
      stats.heavy_hitters.push_back(CompressedHistogram::Singleton{
          slot->value, std::max<std::uint64_t>(scaled, 1)});
    }
  }
  return stats;
}

}  // namespace equihist
