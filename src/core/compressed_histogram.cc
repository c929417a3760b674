#include "core/compressed_histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/math.h"
#include "common/string_util.h"
#include "core/error_metrics.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"

namespace equihist {
namespace {

struct Run {
  Value value;
  std::uint64_t count;
};

std::vector<Run> RunsOfSorted(std::span<const Value> sorted) {
  std::vector<Run> runs;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    runs.push_back(Run{sorted[i], j - i});
    i = j;
  }
  return runs;
}

}  // namespace

Result<CompressedHistogram> CompressedHistogram::Build(
    std::span<const Value> sorted, std::uint64_t k,
    std::uint64_t population_size, double scale) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (sorted.empty()) {
    return Status::FailedPrecondition(
        "cannot build a compressed histogram over an empty value set");
  }
  const std::uint64_t m = sorted.size();
  const double threshold = static_cast<double>(m) / static_cast<double>(k);

  std::vector<Run> runs = RunsOfSorted(sorted);
  // Candidate singletons: multiplicity strictly above the ideal bucket
  // size. At most k-1 are kept (most frequent first) so the equi-height
  // part always has a bucket if any residual values exist.
  std::vector<Run> candidates;
  for (const Run& run : runs) {
    if (static_cast<double>(run.count) > threshold) candidates.push_back(run);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Run& a, const Run& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.value < b.value;
            });
  std::uint64_t residual_size = m;
  for (const Run& c : candidates) residual_size -= c.count;
  const std::uint64_t max_singletons = (residual_size > 0) ? k - 1 : k;
  if (candidates.size() > max_singletons) {
    for (std::size_t i = max_singletons; i < candidates.size(); ++i) {
      residual_size += candidates[i].count;
    }
    candidates.resize(max_singletons);
  }

  CompressedHistogram result;
  result.k_ = k;
  result.total_ = population_size;
  result.singletons_.reserve(candidates.size());
  for (const Run& c : candidates) {
    const auto scaled = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(c.count) * scale));
    result.singletons_.push_back(Singleton{c.value, std::max<std::uint64_t>(
                                                        scaled, 1)});
  }
  std::sort(result.singletons_.begin(), result.singletons_.end(),
            [](const Singleton& a, const Singleton& b) {
              return a.value < b.value;
            });

  if (residual_size > 0) {
    std::vector<Value> residual;
    residual.reserve(residual_size);
    auto is_singleton = [&](Value v) {
      return std::binary_search(
          result.singletons_.begin(), result.singletons_.end(),
          Singleton{v, 0}, [](const Singleton& a, const Singleton& b) {
            return a.value < b.value;
          });
    };
    for (const Run& run : runs) {
      if (!is_singleton(run.value)) {
        residual.insert(residual.end(), run.count, run.value);
      }
    }
    const std::uint64_t k_eq = k - result.singletons_.size();
    const auto claimed_residual_total = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(residual.size()) * scale));
    EQUIHIST_ASSIGN_OR_RETURN(
        result.equi_part_,
        BuildHistogramFromSample(residual, k_eq,
                                 std::max<std::uint64_t>(claimed_residual_total,
                                                         1)));
    result.has_equi_part_ = true;
  }
  return result;
}

Result<CompressedHistogram> CompressedHistogram::FromParts(
    std::vector<Singleton> singletons, std::optional<Histogram> equi_part,
    std::uint64_t bucket_budget, std::uint64_t total) {
  if (bucket_budget == 0) {
    return Status::InvalidArgument("bucket budget must be positive");
  }
  if (singletons.empty() && !equi_part.has_value()) {
    return Status::InvalidArgument(
        "a compressed histogram needs singletons or an equi-height part");
  }
  for (std::size_t i = 0; i < singletons.size(); ++i) {
    if (singletons[i].count == 0) {
      return Status::InvalidArgument("singleton counts must be positive");
    }
    if (i > 0 && singletons[i - 1].value >= singletons[i].value) {
      return Status::InvalidArgument(
          "singletons must be sorted by value, strictly increasing");
    }
  }
  const std::uint64_t max_singletons =
      equi_part.has_value() ? bucket_budget - 1 : bucket_budget;
  if (singletons.size() > max_singletons) {
    return Status::InvalidArgument(
        "singletons exceed the bucket budget");
  }
  CompressedHistogram result;
  result.k_ = bucket_budget;
  result.total_ = total;
  result.singletons_ = std::move(singletons);
  if (equi_part.has_value()) {
    result.equi_part_ = std::move(*equi_part);
    result.has_equi_part_ = true;
  }
  return result;
}

Result<CompressedHistogram> CompressedHistogram::BuildPerfect(
    const ValueSet& population, std::uint64_t k) {
  EQUIHIST_ASSIGN_OR_RETURN(
      CompressedHistogram result,
      Build(population.sorted_values(), k, population.size(), /*scale=*/1.0));
  // With scale 1 the equi-height claimed counts are evenly spread; replace
  // them with the true partition counts so the structure is exact.
  if (result.has_equi_part_) {
    std::vector<Value> residual;
    residual.reserve(population.size());
    auto singleton_it = result.singletons_.begin();
    for (Value v : population.sorted_values()) {
      while (singleton_it != result.singletons_.end() &&
             singleton_it->value < v) {
        ++singleton_it;
      }
      if (singleton_it != result.singletons_.end() &&
          singleton_it->value == v) {
        continue;
      }
      residual.push_back(v);
    }
    ValueSet residual_set(std::move(residual));
    if (!residual_set.empty()) {
      EQUIHIST_ASSIGN_OR_RETURN(
          result.equi_part_,
          BuildPerfectHistogram(residual_set, result.k_ -
                                                  result.singletons_.size()));
    }
  }
  return result;
}

Result<CompressedHistogram> CompressedHistogram::BuildFromSample(
    std::span<const Value> sorted_sample, std::uint64_t k,
    std::uint64_t population_size) {
  if (population_size == 0) {
    return Status::InvalidArgument("population_size must be positive");
  }
  if (sorted_sample.empty()) {
    return Status::FailedPrecondition(
        "cannot build a compressed histogram from an empty sample");
  }
  const double scale = static_cast<double>(population_size) /
                       static_cast<double>(sorted_sample.size());
  return Build(sorted_sample, k, population_size, scale);
}

double CompressedHistogram::EstimateRangeCount(const RangeQuery& query) const {
  // Compensated accumulation: a wide range over a histogram with many
  // singletons sums thousands of terms of very different magnitudes, and
  // naive summation drifts with the singleton order.
  KahanSum estimate;
  for (const Singleton& s : singletons_) {
    if (query.lo < s.value && s.value <= query.hi) {
      estimate.Add(static_cast<double>(s.count));
    }
  }
  if (has_equi_part_) {
    estimate.Add(::equihist::EstimateRangeCount(equi_part_, query));
  }
  return estimate.Value();
}

std::string CompressedHistogram::ToString(std::size_t max_entries) const {
  std::ostringstream os;
  os << "CompressedHistogram{k=" << k_
     << ", singletons=" << singletons_.size()
     << ", n=" << FormatWithThousands(total_) << "}\n";
  const std::size_t show = std::min(singletons_.size(), max_entries);
  for (std::size_t i = 0; i < show; ++i) {
    os << "  value " << singletons_[i].value
       << " count=" << singletons_[i].count << "\n";
  }
  if (show < singletons_.size()) {
    os << "  ... (" << singletons_.size() - show << " more singletons)\n";
  }
  if (has_equi_part_) os << equi_part_.ToString(max_entries);
  return os.str();
}

Result<CompressedComparisonReport> CompareCompressed(
    const CompressedHistogram& perfect, const CompressedHistogram& approx,
    const ValueSet& population) {
  if (population.empty()) {
    return Status::InvalidArgument("population must be non-empty");
  }
  CompressedComparisonReport report;
  report.perfect_singletons = perfect.singletons().size();
  report.approx_singletons = approx.singletons().size();

  auto p_it = perfect.singletons().begin();
  for (const auto& a : approx.singletons()) {
    while (p_it != perfect.singletons().end() && p_it->value < a.value) ++p_it;
    if (p_it != perfect.singletons().end() && p_it->value == a.value) {
      ++report.matched_singletons;
      const double truth = static_cast<double>(p_it->count);
      if (truth > 0.0) {
        const double rel =
            std::abs(static_cast<double>(a.count) - truth) / truth;
        report.max_singleton_count_rel_error =
            std::max(report.max_singleton_count_rel_error, rel);
      }
    }
  }

  if (const Histogram* equi = approx.equi_height_part(); equi != nullptr) {
    // Score the approximate equi-height part against the population minus
    // the approximate singleton values.
    std::vector<Value> residual;
    residual.reserve(population.size());
    auto is_singleton = [&](Value v) {
      const auto& s = approx.singletons();
      auto it = std::lower_bound(
          s.begin(), s.end(), v,
          [](const CompressedHistogram::Singleton& a, Value x) {
            return a.value < x;
          });
      return it != s.end() && it->value == v;
    };
    for (Value v : population.sorted_values()) {
      if (!is_singleton(v)) residual.push_back(v);
    }
    if (!residual.empty()) {
      ValueSet residual_set(std::move(residual));
      EQUIHIST_ASSIGN_OR_RETURN(const BucketErrorReport errors,
                                ComputeHistogramErrors(*equi, residual_set));
      report.residual_f_max = errors.f_max;
    }
  }
  return report;
}

}  // namespace equihist
