#ifndef EQUIHIST_CORE_RANGE_ESTIMATOR_H_
#define EQUIHIST_CORE_RANGE_ESTIMATOR_H_

#include <cstdint>

#include "core/histogram.h"
#include "data/workload.h"

namespace equihist {

// Output-size estimation for range queries from a histogram — the typical
// optimizer strategy described in Section 2.2: whole buckets strictly
// inside the range contribute their full (claimed) count, and the two
// partially covered end buckets contribute by linear interpolation over the
// bucket's domain interval (the uniform-spread-within-bucket assumption,
// "the main source of error in the estimation").
//
// Query semantics are lo < X <= hi, consistent with bucket boundaries.
// Degenerate zero-width buckets (duplicated separators, Section 5)
// contribute all-or-nothing.
double EstimateRangeCount(const Histogram& histogram, const RangeQuery& query);

// Estimated selectivity in [0, 1]: EstimateRangeCount / histogram.total().
double EstimateRangeSelectivity(const Histogram& histogram,
                                const RangeQuery& query);

// -- Worst-case guarantees (Theorems 1 and 3) -------------------------------
// Absolute error bounds on range-count estimation, in tuples, for a range
// query of any output size. The relative versions divide by s = t*n/k.

// Theorem 1.1: even a perfect equi-height histogram cannot guarantee
// better than 2n/k absolute error.
double PerfectHistogramAbsoluteErrorBound(std::uint64_t n, std::uint64_t k);

// Theorem 3: a histogram with max error f*n/k guarantees absolute error
// <= (1 + f) * 2n/k for all range queries.
double MaxErrorHistogramAbsoluteErrorBound(std::uint64_t n, std::uint64_t k,
                                           double f);

// Theorem 1.2: a histogram with *average* error f*n/k cannot guarantee
// absolute error below (1 + f*k/4) * 2n/k.
double AvgErrorHistogramAbsoluteErrorFloor(std::uint64_t n, std::uint64_t k,
                                           double f);

// Theorem 1.3: a histogram with *variance* error f*n/k cannot guarantee
// absolute error below (1 + f*sqrt(k*t/8)) * 2n/k for queries of output
// size t*n/k.
double VarErrorHistogramAbsoluteErrorFloor(std::uint64_t n, std::uint64_t k,
                                           double f, double t);

// -- Empirical workload evaluation ------------------------------------------

// What EvaluateRangeWorkload (stats/histogram_model.h) reports for a query
// workload scored against true counts.
struct RangeWorkloadReport {
  std::size_t query_count = 0;
  double max_absolute_error = 0.0;
  double mean_absolute_error = 0.0;
  // Relative errors are computed over queries whose true output size is
  // positive (the paper's "output size is not too small" caveat).
  std::size_t relative_query_count = 0;
  double max_relative_error = 0.0;
  double mean_relative_error = 0.0;
};

}  // namespace equihist

#endif  // EQUIHIST_CORE_RANGE_ESTIMATOR_H_
