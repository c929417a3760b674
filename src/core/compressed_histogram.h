#ifndef EQUIHIST_CORE_COMPRESSED_HISTOGRAM_H_
#define EQUIHIST_CORE_COMPRESSED_HISTOGRAM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/histogram.h"
#include "data/sorted_view.h"
#include "data/value_set.h"
#include "data/workload.h"

namespace equihist {

// Compressed histograms (Section 5 / the full paper's alternative for
// heavily duplicated columns): values whose multiplicity exceeds the ideal
// bucket size n/k are pulled out into exact singleton buckets, and the
// remaining values are summarized by an equi-height histogram over the
// leftover bucket budget. SQL Server, DB2 and Oracle all ship variants of
// this structure.
class CompressedHistogram {
 public:
  struct Singleton {
    Value value = 0;
    std::uint64_t count = 0;

    friend bool operator==(const Singleton&, const Singleton&) = default;
  };

  // Builds the perfect compressed k-histogram for `population`: every value
  // with multiplicity > n/k becomes a singleton (up to k-1 of them, most
  // frequent first); the rest of the data fills the remaining buckets
  // equi-height. Requires k >= 1 and a non-empty population.
  static Result<CompressedHistogram> BuildPerfect(const ValueSet& population,
                                                  std::uint64_t k);

  // Builds an approximate compressed histogram from a sorted random sample
  // of `population_size` tuples: values whose *sample* multiplicity exceeds
  // r/k become singletons with counts scaled by n/r; the rest of the sample
  // drives the equi-height part.
  static Result<CompressedHistogram> BuildFromSample(
      std::span<const Value> sorted_sample, std::uint64_t k,
      std::uint64_t population_size);

  // Reassembles a compressed histogram from its parts (used by
  // deserialization and the HistogramModel backend adapter). Singletons
  // must be sorted by value, strictly increasing, with positive counts, and
  // must fit the bucket budget (k-1 of them when an equi-height part is
  // present, k otherwise). `total` is the claimed population size.
  static Result<CompressedHistogram> FromParts(
      std::vector<Singleton> singletons, std::optional<Histogram> equi_part,
      std::uint64_t bucket_budget, std::uint64_t total);

  // High-multiplicity values, sorted by value ascending.
  const std::vector<Singleton>& singletons() const { return singletons_; }

  // The equi-height part over non-singleton values; null when every bucket
  // went to singletons or no residual values exist.
  const Histogram* equi_height_part() const {
    return has_equi_part_ ? &equi_part_ : nullptr;
  }

  std::uint64_t bucket_budget() const { return k_; }
  std::uint64_t total() const { return total_; }

  // Range estimation lo < X <= hi: singletons contribute exactly, the
  // equi-height part by interpolation (Section 2.2 strategy).
  double EstimateRangeCount(const RangeQuery& query) const;

  std::string ToString(std::size_t max_entries = 8) const;

 private:
  CompressedHistogram() : equi_part_(Histogram::Create({}, {0}, 0, 0).value()) {}

  static Result<CompressedHistogram> Build(std::span<const Value> sorted,
                                           std::uint64_t k,
                                           std::uint64_t population_size,
                                           double scale);

  std::vector<Singleton> singletons_;
  Histogram equi_part_;
  bool has_equi_part_ = false;
  std::uint64_t k_ = 0;
  std::uint64_t total_ = 0;
};

// How faithfully an approximate compressed histogram reproduces the perfect
// one: singleton-set agreement plus count errors on the matched singletons
// and the f_max of the equi-height parts measured against the residual
// population.
struct CompressedComparisonReport {
  std::size_t perfect_singletons = 0;
  std::size_t approx_singletons = 0;
  std::size_t matched_singletons = 0;  // same value in both
  double max_singleton_count_rel_error = 0.0;
  double residual_f_max = 0.0;  // approx equi-part vs residual population
};

Result<CompressedComparisonReport> CompareCompressed(
    const CompressedHistogram& perfect, const CompressedHistogram& approx,
    const ValueSet& population);

}  // namespace equihist

#endif  // EQUIHIST_CORE_COMPRESSED_HISTOGRAM_H_
