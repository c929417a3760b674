#ifndef EQUIHIST_CORE_ERROR_METRICS_H_
#define EQUIHIST_CORE_ERROR_METRICS_H_

#include <cstdint>
#include <span>

#include "common/result.h"
#include "core/histogram.h"
#include "data/sorted_view.h"
#include "data/value_set.h"

namespace equihist {

// The three bucket-size error metrics of Section 2, all measured against
// the ideal equi-height size n/k:
//   delta_avg = sum_j |b_j - n/k| / k            (average error)
//   delta_var = sqrt( sum_j |b_j - n/k|^2 / k )  (variance error)
//   delta_max = max_j |b_j - n/k|                (the paper's max error)
// Theorem 2: delta_avg <= delta_var <= delta_max (verified by tests).
struct BucketErrorReport {
  double delta_avg = 0.0;
  double delta_var = 0.0;
  double delta_max = 0.0;

  // The metrics as fractions f of the ideal bucket size n/k
  // (delta = f * n/k). The paper reports errors in these units.
  double f_avg = 0.0;
  double f_var = 0.0;
  double f_max = 0.0;
};

// Errors of the given per-bucket sizes against ideal size n/k, where
// n = sum(bucket_sizes) and k = bucket_sizes.size(). k must be positive.
Result<BucketErrorReport> ComputeBucketErrors(
    std::span<const std::uint64_t> bucket_sizes);

// Errors of `histogram`'s separators when used to partition `population`:
// partitions the population and scores the resulting counts. This is the
// quantity the sampling bounds of Section 3 control.
Result<BucketErrorReport> ComputeHistogramErrors(const Histogram& histogram,
                                                 const ValueSet& population);

// delta-separation (Definition 2): the maximum over j of the size of the
// symmetric difference between bucket j of `a` and bucket j of `b`, with
// bucket contents drawn from `population`. Both histograms must have the
// same k. The stronger Theorem 5 bound controls this metric.
Result<std::uint64_t> SeparationError(const Histogram& a, const Histogram& b,
                                      const ValueSet& population);

// A sorted multiset as the validation metrics below read it: its size and
// its partition ranks at a histogram's separators, ranks[j] elements in
// buckets 0..j (SortedView::PartitionRanks). Each metric is written once
// over these ranks, and its SortedView overload computes them and calls it.
// CVB records a batch's ranks while it folds the batch into its sample
// (Sample::Add), so it validates without a sorted view of the batch.
// (No default constructor, so a call passing {} still means SortedView.)
struct SeparatorRanks {
  SeparatorRanks(std::span<const std::uint64_t> ranks_in,
                 std::uint64_t size_in)
      : ranks(ranks_in), size(size_in) {}

  std::span<const std::uint64_t> ranks;
  std::uint64_t size;
};

// Relative deviation delta_S of a histogram with respect to a sample S
// (Definition 3): partition the (sorted) sample with the histogram's
// separators and return max_j | |S_j| - |S|/k |. The cross-validation test
// of the CVB algorithm compares this against f * |S| / k.
double RelativeDeviation(const Histogram& histogram, SortedView sorted_sample);
double RelativeDeviation(const Histogram& histogram, SeparatorRanks sample);

// The claimed-count deviation of CVB's kClaimedDeviation metric: partition
// the sample S with the histogram's separators and return
// max_j | |S_j| - claimed_j * |S|/n | in units of the ideal bucket |S|/k,
// 0 for an empty sample. n is the histogram's total.
double ClaimedDeviation(const Histogram& histogram, SeparatorRanks sample);

// The duplicate-tolerant fractional max error f' (Definition 4).
// `separators` come from the accumulated sample; f_j / p_j are the
// fractions of the accumulated sample / of the validation sample that are
// <= d_j, where d_1..d_m are the *distinct* separator values. Segments are
// the gaps between consecutive distinct separators (including the segment
// above the last separator, whose reference fraction completes to 1).
//
// One refinement over the literal Definition 4: the per-segment
// denominator is floored at 1/k (one ideal bucket's share). A segment can
// claim less than a bucket when a heavy value's run ends just short of a
// quantile boundary; holding such slivers to *relative* accuracy f is pure
// granularity noise, so they are held to the Delta_max-style absolute
// accuracy f * (1/k) instead, consistent with Theorem 4's delta <= n/k
// proviso. Segments at or above a bucket's share are scored exactly as
// Definition 4 prescribes.
//
// `sorted_reference` is the sample that produced the separators (R);
// `sorted_validation` is the fresh sample (R_i). With all-distinct values
// this reduces to RelativeDeviation normalized by |S|/k (tested).
double FractionalMaxError(const Histogram& histogram,
                          SortedView sorted_reference,
                          SortedView sorted_validation);
double FractionalMaxError(const Histogram& histogram,
                          SeparatorRanks reference, SeparatorRanks validation);

// Deviations of the histogram's *claimed* per-bucket counts from the true
// counts obtained by partitioning `population` with its separators. For a
// sample-built histogram this is the direct empirical form of Theorem 4's
// guarantee that generalizes to duplicated data: the claimed counts carry
// the sample's per-bucket shares, so |claimed_j - true_j| <= delta = f*n/k
// is exactly what the sampling bound promises, with no contribution from
// the unavoidable bucket-granularity of heavy values. The f_* fields are
// still scaled by the ideal bucket size n/k.
Result<BucketErrorReport> ComputeClaimedErrors(const Histogram& histogram,
                                               const ValueSet& population);

// The fractional error of a histogram's *claimed* distribution against the
// true population, in the spirit of Definition 4: for each segment between
// consecutive distinct separator values (plus the final open segment), the
// claimed fraction of mass (from the histogram's bucket counts) is compared
// with the population's true fraction, scaled by the claimed fraction. This
// is the right end-to-end quality measure when duplicates make a true
// equi-height histogram impossible — the raw bucket-count max error is then
// dominated by unavoidable heavy values, whereas this metric measures only
// the part the sampling algorithm can control. Reduces to ~f_max on
// duplicate-free data (claimed counts are all ~n/k and segments are single
// buckets).
double FractionalErrorVsPopulation(const Histogram& histogram,
                                   const ValueSet& population);

}  // namespace equihist

#endif  // EQUIHIST_CORE_ERROR_METRICS_H_
