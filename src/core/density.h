#ifndef EQUIHIST_CORE_DENSITY_H_
#define EQUIHIST_CORE_DENSITY_H_

#include "data/sorted_view.h"

namespace equihist {

// The SQL Server "density" statistic collected alongside histograms
// (Section 7.1, implementation note 4): a measure of average duplication,
// 0.0 when all column values are distinct and 1.0 when they are all
// identical. We use the standard definition: the probability that two
// tuples drawn without replacement have equal values,
//   density = (sum_i c_i^2 - n) / (n^2 - n)
// over the distinct-value multiplicities c_i. Returns 0 for n <= 1.
//
// Both functions take the multiset sorted ascending.
double ComputeDensity(SortedView sorted_values);

// Density estimated from a sorted sample: the same formula applied to the
// sample multiplicities. The paper notes this estimate "was extremely
// accurate whenever the CVB algorithm converges".
double EstimateDensityFromSample(SortedView sorted_sample);

}  // namespace equihist

#endif  // EQUIHIST_CORE_DENSITY_H_
