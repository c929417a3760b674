#include "core/error_metrics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math.h"

namespace equihist {

Result<BucketErrorReport> ComputeBucketErrors(
    std::span<const std::uint64_t> bucket_sizes) {
  const std::uint64_t k = bucket_sizes.size();
  if (k == 0) {
    return Status::InvalidArgument("bucket_sizes must be non-empty");
  }
  std::uint64_t n = 0;
  for (std::uint64_t b : bucket_sizes) n += b;
  const double ideal = static_cast<double>(n) / static_cast<double>(k);

  KahanSum abs_sum;
  KahanSum sq_sum;
  double max_dev = 0.0;
  for (std::uint64_t b : bucket_sizes) {
    const double dev = std::abs(static_cast<double>(b) - ideal);
    abs_sum.Add(dev);
    sq_sum.Add(dev * dev);
    max_dev = std::max(max_dev, dev);
  }

  BucketErrorReport report;
  report.delta_avg = abs_sum.Value() / static_cast<double>(k);
  report.delta_var = std::sqrt(sq_sum.Value() / static_cast<double>(k));
  report.delta_max = max_dev;
  if (ideal > 0.0) {
    report.f_avg = report.delta_avg / ideal;
    report.f_var = report.delta_var / ideal;
    report.f_max = report.delta_max / ideal;
  }
  return report;
}

Result<BucketErrorReport> ComputeHistogramErrors(const Histogram& histogram,
                                                 const ValueSet& population) {
  if (population.empty()) {
    return Status::InvalidArgument("population must be non-empty");
  }
  const std::vector<std::uint64_t> counts =
      histogram.PartitionCounts(population);
  return ComputeBucketErrors(counts);
}

Result<std::uint64_t> SeparationError(const Histogram& a, const Histogram& b,
                                      const ValueSet& population) {
  const std::uint64_t k = a.bucket_count();
  if (k != b.bucket_count()) {
    return Status::InvalidArgument(
        "delta-separation requires histograms with equal bucket counts");
  }
  if (population.empty()) {
    return Status::InvalidArgument("population must be non-empty");
  }
  // Effective finite stand-ins for the -inf / +inf bucket ends: nothing in
  // the population lies outside [min, max].
  const Value neg_inf = population.min() - 1;
  const Value pos_inf = population.max();

  auto bucket_bounds = [&](const Histogram& h, std::uint64_t j) {
    const Value lo = (j == 0) ? neg_inf : h.separators()[j - 1];
    const Value hi = (j == k - 1) ? pos_inf : h.separators()[j];
    return std::pair<Value, Value>(std::min(lo, pos_inf),
                                   std::clamp(hi, neg_inf, pos_inf));
  };

  std::uint64_t worst = 0;
  for (std::uint64_t j = 0; j < k; ++j) {
    const auto [lo_a, hi_a] = bucket_bounds(a, j);
    const auto [lo_b, hi_b] = bucket_bounds(b, j);
    const std::uint64_t size_a = population.CountInRange(lo_a, hi_a);
    const std::uint64_t size_b = population.CountInRange(lo_b, hi_b);
    const std::uint64_t inter =
        population.CountInRange(std::max(lo_a, lo_b), std::min(hi_a, hi_b));
    const std::uint64_t sym_diff = size_a + size_b - 2 * inter;
    worst = std::max(worst, sym_diff);
  }
  return worst;
}

namespace {

// The partition ranks of `sorted` at the histogram's separators.
std::vector<std::uint64_t> RanksAtSeparators(const Histogram& histogram,
                                             SortedView sorted) {
  std::vector<std::uint64_t> ranks(histogram.separators().size());
  sorted.PartitionRanks(histogram.separators(), ranks);
  return ranks;
}

std::vector<std::uint64_t> BucketCounts(SeparatorRanks sample) {
  return CountsFromRanks({sample.ranks.begin(), sample.ranks.end()},
                         sample.size);
}

}  // namespace

double RelativeDeviation(const Histogram& histogram, SortedView sorted_sample) {
  const std::vector<std::uint64_t> ranks =
      RanksAtSeparators(histogram, sorted_sample);
  return RelativeDeviation(histogram, {ranks, sorted_sample.size()});
}

double RelativeDeviation(const Histogram& histogram, SeparatorRanks sample) {
  const std::vector<std::uint64_t> counts = BucketCounts(sample);
  const double ideal = static_cast<double>(sample.size) /
                       static_cast<double>(histogram.bucket_count());
  double worst = 0.0;
  for (std::uint64_t c : counts) {
    worst = std::max(worst, std::abs(static_cast<double>(c) - ideal));
  }
  return worst;
}

double ClaimedDeviation(const Histogram& histogram, SeparatorRanks sample) {
  const std::vector<std::uint64_t> counts = BucketCounts(sample);
  const double scale = static_cast<double>(sample.size) /
                       static_cast<double>(histogram.total());
  const double ideal = static_cast<double>(sample.size) /
                       static_cast<double>(histogram.bucket_count());
  double worst = 0.0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    const double expected =
        static_cast<double>(histogram.counts()[j]) * scale;
    worst = std::max(worst,
                     std::abs(static_cast<double>(counts[j]) - expected));
  }
  return (ideal > 0.0) ? worst / ideal : 0.0;
}

double FractionalMaxError(const Histogram& histogram,
                          SortedView sorted_reference,
                          SortedView sorted_validation) {
  const std::vector<std::uint64_t> reference =
      RanksAtSeparators(histogram, sorted_reference);
  const std::vector<std::uint64_t> validation =
      RanksAtSeparators(histogram, sorted_validation);
  return FractionalMaxError(histogram, {reference, sorted_reference.size()},
                            {validation, sorted_validation.size()});
}

double FractionalMaxError(const Histogram& histogram,
                          SeparatorRanks reference,
                          SeparatorRanks validation) {
  if (reference.size == 0 || validation.size == 0) return 0.0;

  // Denominator floor: one ideal bucket's share. Definition 4 scales each
  // segment's error by the segment's own reference mass; for segments
  // claiming less than a bucket (a heavy value's run ending just before a
  // quantile boundary) that relative scale is granularity noise, so we
  // require absolute accuracy f * (1/k) there instead — the Delta_max
  // semantics, matching Theorem 4's delta <= n/k proviso.
  const double floor =
      1.0 / static_cast<double>(histogram.bucket_count());

  // The distinct separator values d_1 < d_2 < ... < d_m are the last
  // separators of their runs, whose partition ranks count the elements at
  // or below them.
  const std::vector<Value>& separators = histogram.separators();
  double worst = 0.0;
  double prev_ref = 0.0;
  double prev_val = 0.0;
  // Segments (d_{j-1}, d_j] for j = 1..m plus the final open segment
  // (d_m, +inf), whose fractions complete to 1.
  for (std::size_t j = 0; j <= separators.size(); ++j) {
    const bool last = j == separators.size();
    if (!last && j + 1 < separators.size() &&
        separators[j + 1] == separators[j]) {
      continue;
    }
    const double ref_cum = last ? 1.0
                                : static_cast<double>(reference.ranks[j]) /
                                      static_cast<double>(reference.size);
    const double val_cum = last ? 1.0
                                : static_cast<double>(validation.ranks[j]) /
                                      static_cast<double>(validation.size);
    const double ref_frac = ref_cum - prev_ref;
    const double val_frac = val_cum - prev_val;
    prev_ref = ref_cum;
    prev_val = val_cum;
    worst = std::max(worst,
                     std::abs(ref_frac - val_frac) / std::max(ref_frac, floor));
  }
  return worst;
}

Result<BucketErrorReport> ComputeClaimedErrors(const Histogram& histogram,
                                               const ValueSet& population) {
  if (population.empty()) {
    return Status::InvalidArgument("population must be non-empty");
  }
  const std::vector<std::uint64_t> true_counts =
      histogram.PartitionCounts(population);
  const std::uint64_t k = histogram.bucket_count();
  const double ideal = static_cast<double>(population.size()) /
                       static_cast<double>(k);
  KahanSum abs_sum;
  KahanSum sq_sum;
  double max_dev = 0.0;
  for (std::uint64_t j = 0; j < k; ++j) {
    const double dev = std::abs(static_cast<double>(true_counts[j]) -
                                static_cast<double>(histogram.counts()[j]));
    abs_sum.Add(dev);
    sq_sum.Add(dev * dev);
    max_dev = std::max(max_dev, dev);
  }
  BucketErrorReport report;
  report.delta_avg = abs_sum.Value() / static_cast<double>(k);
  report.delta_var = std::sqrt(sq_sum.Value() / static_cast<double>(k));
  report.delta_max = max_dev;
  if (ideal > 0.0) {
    report.f_avg = report.delta_avg / ideal;
    report.f_var = report.delta_var / ideal;
    report.f_max = report.delta_max / ideal;
  }
  return report;
}

double FractionalErrorVsPopulation(const Histogram& histogram,
                                   const ValueSet& population) {
  if (population.empty() || histogram.total() == 0) return 0.0;
  const auto& seps = histogram.separators();
  const auto& counts = histogram.counts();
  const double claimed_total = static_cast<double>(histogram.total());
  const double true_total = static_cast<double>(population.size());

  double worst = 0.0;
  double prev_claimed = 0.0;
  double prev_true = 0.0;
  std::uint64_t claimed_cum = 0;
  std::size_t bucket = 0;
  // Walk distinct separator values; buckets whose upper separator equals the
  // current distinct value all belong to the segment ending there.
  for (std::size_t i = 0; i <= seps.size(); ++i) {
    const bool last_segment = (i == seps.size());
    if (!last_segment && i + 1 < seps.size() && seps[i + 1] == seps[i]) {
      continue;  // fold duplicated separators into one segment boundary
    }
    double claimed_cum_frac;
    double true_cum_frac;
    if (last_segment) {
      claimed_cum_frac = 1.0;
      true_cum_frac = 1.0;
    } else {
      // Buckets up to and including index i end at separator value seps[i].
      while (bucket <= i) claimed_cum += counts[bucket++];
      claimed_cum_frac = static_cast<double>(claimed_cum) / claimed_total;
      true_cum_frac =
          static_cast<double>(population.CountLessEqual(seps[i])) / true_total;
    }
    const double claimed_frac = claimed_cum_frac - prev_claimed;
    const double true_frac = true_cum_frac - prev_true;
    prev_claimed = claimed_cum_frac;
    prev_true = true_cum_frac;
    // Same 1/k denominator floor as FractionalMaxError: segments claiming
    // less than one ideal bucket are held to absolute accuracy f/k.
    const double floor = 1.0 / static_cast<double>(histogram.bucket_count());
    worst = std::max(
        worst, std::abs(claimed_frac - true_frac) / std::max(claimed_frac,
                                                             floor));
  }
  return worst;
}

}  // namespace equihist
