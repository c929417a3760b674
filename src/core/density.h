#ifndef EQUIHIST_CORE_DENSITY_H_
#define EQUIHIST_CORE_DENSITY_H_

#include <cstdint>
#include <vector>

#include "core/compressed_histogram.h"
#include "data/sorted_view.h"

namespace equihist {

// The SQL Server "density" statistic collected alongside histograms
// (Section 7.1, implementation note 4): a measure of average duplication,
// 0.0 when all column values are distinct and 1.0 when they are all
// identical. We use the standard definition: the probability that two
// tuples drawn without replacement have equal values,
//   density = (sum_i c_i^2 - n) / (n^2 - n)
// over the distinct-value multiplicities c_i. Returns 0 for n <= 1.
// Takes the multiset sorted ascending. Applied to a sample's
// multiplicities it is the sample's density estimate, which the paper notes
// "was extremely accurate whenever the CVB algorithm converges".
double ComputeDensity(SortedView sorted_values);

// The density rule, fed one distinct value's multiplicity at a time. The
// sum of squares is exact, in 128-bit integers, and rounded once to a
// double, so the density does not depend on the order of the values. Below
// 2^53 that is the bits a compensated (Kahan) sum of the squares as
// doubles gives too, since every term and partial sum is then exact.
// Add(0) adds nothing.
class DensityAccumulator {
 public:
  void Add(std::uint64_t multiplicity) {
    sq_sum_ += static_cast<unsigned __int128>(multiplicity) * multiplicity;
  }

  // The density of the n elements added. Inline, as Add is, so that a
  // local accumulator's address does not escape and its sum stays in
  // registers through a walk.
  double Density(std::uint64_t n) const {
    if (n <= 1) return 0.0;
    const double nd = static_cast<double>(n);
    return (static_cast<double>(sq_sum_) - nd) / (nd * nd - nd);
  }

 private:
  unsigned __int128 sq_sum_ = 0;
};

// What every statistics build keeps from its sorted sample or scan
// (Section 7.1, notes 3-4), taken in one pass over its distinct values
// (over every slot of a key window, without a branch on empty ones):
//   - the density, as ComputeDensity;
//   - D, the distinct values, and f_1, the values seen once: all that the
//     paper's distinct-value estimator reads of a sample (PaperEstimator),
//     and D is a full scan's exact distinct count;
//   - the heavy hitters: every value whose multiplicity exceeds one ideal
//     bucket, sorted.size() / buckets, ascending, with its multiplicity
//     scaled by `scale` (n/r for a sample of r tuples, 1 for a full scan)
//     and rounded, at least 1. These are the compressed-histogram
//     singleton candidates of Section 5.
// The whole frequency profile, which the other Section 6 estimators read,
// is FrequencyProfile::FromSorted of the same view.
struct SampleStatistics {
  double density = 0.0;
  std::uint64_t distinct = 0;
  std::uint64_t singletons = 0;
  std::vector<CompressedHistogram::Singleton> heavy_hitters{};
};

SampleStatistics SummarizeSample(SortedView sorted, std::uint64_t buckets,
                                 double scale);

}  // namespace equihist

#endif  // EQUIHIST_CORE_DENSITY_H_
