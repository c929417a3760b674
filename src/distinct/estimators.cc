#include "distinct/estimators.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"

namespace equihist {
namespace {

Status ValidateInputs(std::uint64_t sample_size, std::uint64_t n) {
  if (sample_size == 0) {
    return Status::InvalidArgument("sample must be non-empty");
  }
  if (n == 0) return Status::InvalidArgument("n must be positive");
  return Status::OK();
}

Status ValidateInputs(const FrequencyProfile& profile, std::uint64_t n) {
  return ValidateInputs(profile.sample_size(), n);
}

// Every estimate is clamped into [D, n]: we have certainly seen D distinct
// values, and there cannot be more distinct values than tuples.
double Clamp(double estimate, std::uint64_t distinct_in_sample,
             std::uint64_t n) {
  const double lo = static_cast<double>(distinct_in_sample);
  const double hi = static_cast<double>(n);
  return std::clamp(estimate, lo, hi);
}

double Clamp(double estimate, const FrequencyProfile& profile,
             std::uint64_t n) {
  return Clamp(estimate, profile.distinct_in_sample(), n);
}

}  // namespace

Result<double> PaperEstimator(std::uint64_t sample_size,
                              std::uint64_t distinct_in_sample,
                              std::uint64_t singletons, std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(sample_size, n));
  const double r = static_cast<double>(sample_size);
  const double f1_plus = std::max<double>(static_cast<double>(singletons), 1.0);
  const double seen_multiple =
      static_cast<double>(distinct_in_sample - singletons);
  const double estimate =
      std::sqrt(static_cast<double>(n) / r) * f1_plus + seen_multiple;
  return Clamp(estimate, distinct_in_sample, n);
}

Result<double> PaperEstimator(const FrequencyProfile& profile,
                              std::uint64_t n) {
  return PaperEstimator(profile.sample_size(), profile.distinct_in_sample(),
                        profile.f(1), n);
}

Result<double> SampleDistinctCount(const FrequencyProfile& profile,
                                   std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  return Clamp(static_cast<double>(profile.distinct_in_sample()), profile, n);
}

Result<double> NaiveScaleUp(const FrequencyProfile& profile, std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const double scale = static_cast<double>(n) /
                       static_cast<double>(profile.sample_size());
  return Clamp(static_cast<double>(profile.distinct_in_sample()) * scale,
               profile, n);
}

Result<double> GoodmanEstimator(const FrequencyProfile& profile,
                                std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const std::uint64_t r = profile.sample_size();
  const double d_seen = static_cast<double>(profile.distinct_in_sample());
  if (r >= n) return Clamp(d_seen, profile, n);  // full scan: exact

  // Term_j = (-1)^{j+1} * (n-r+j-1)! (r-j)! / [(n-r-1)! r!] * f_j,
  // evaluated in logs. The series alternates with rapidly growing terms;
  // accumulate in compensated summation and bail out to D if it loses
  // finiteness — the behaviour the paper's critique predicts.
  const double lg_base = std::lgamma(static_cast<double>(n - r)) +
                         std::lgamma(static_cast<double>(r) + 1.0);
  KahanSum series;
  for (std::uint64_t j = 1; j <= profile.max_multiplicity(); ++j) {
    const std::uint64_t fj = profile.f(j);
    if (fj == 0) continue;
    const double lg_term =
        std::lgamma(static_cast<double>(n - r + j)) +
        std::lgamma(static_cast<double>(r - j) + 1.0) - lg_base;
    const double magnitude =
        std::exp(lg_term) * static_cast<double>(fj);
    if (!std::isfinite(magnitude)) return Clamp(d_seen, profile, n);
    series.Add((j % 2 == 1) ? magnitude : -magnitude);
  }
  const double estimate = d_seen + series.Value();
  if (!std::isfinite(estimate)) return Clamp(d_seen, profile, n);
  return Clamp(estimate, profile, n);
}

Result<double> ChaoEstimator(const FrequencyProfile& profile,
                             std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const double d = static_cast<double>(profile.distinct_in_sample());
  const double f1 = static_cast<double>(profile.f(1));
  const double f2 = static_cast<double>(profile.f(2));
  const double estimate = (f2 > 0.0) ? d + f1 * f1 / (2.0 * f2)
                                     : d + f1 * (f1 - 1.0) / 2.0;
  return Clamp(estimate, profile, n);
}

Result<double> ChaoLeeEstimator(const FrequencyProfile& profile,
                                std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const double r = static_cast<double>(profile.sample_size());
  const double d = static_cast<double>(profile.distinct_in_sample());
  const double f1 = static_cast<double>(profile.f(1));
  // Coverage estimate C-hat = 1 - f1 / r. When everything in the sample is
  // a singleton, coverage is 0 and the estimator degenerates; fall back to
  // the trivial upper bound n (Clamp then applies).
  const double coverage = 1.0 - f1 / r;
  if (coverage <= 0.0) return Clamp(static_cast<double>(n), profile, n);
  const double d0 = d / coverage;
  // Squared coefficient of variation of the (unknown) class sizes,
  // estimated per Chao-Lee from the profile.
  KahanSum sum_j;
  for (std::uint64_t j = 1; j <= profile.max_multiplicity(); ++j) {
    sum_j.Add(static_cast<double>(j) * static_cast<double>(j - 1) *
              static_cast<double>(profile.f(j)));
  }
  double cv2 = d0 * sum_j.Value() / (r * (r - 1.0)) - 1.0;
  if (r <= 1.0 || cv2 < 0.0) cv2 = 0.0;
  const double estimate = d0 + r * (1.0 - coverage) / coverage * cv2;
  return Clamp(estimate, profile, n);
}

Result<double> JackknifeEstimator(const FrequencyProfile& profile,
                                  std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const double r = static_cast<double>(profile.sample_size());
  const double d = static_cast<double>(profile.distinct_in_sample());
  const double f1 = static_cast<double>(profile.f(1));
  return Clamp(d + f1 * (r - 1.0) / r, profile, n);
}

Result<double> SecondOrderJackknifeEstimator(const FrequencyProfile& profile,
                                             std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const double r = static_cast<double>(profile.sample_size());
  const double d = static_cast<double>(profile.distinct_in_sample());
  const double f1 = static_cast<double>(profile.f(1));
  const double f2 = static_cast<double>(profile.f(2));
  if (r < 2.0) return JackknifeEstimator(profile, n);
  const double estimate = d + (2.0 * r - 3.0) / r * f1 -
                          (r - 2.0) * (r - 2.0) / (r * (r - 1.0)) * f2;
  return Clamp(estimate, profile, n);
}

Result<double> ShlosserEstimator(const FrequencyProfile& profile,
                                 std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const double r = static_cast<double>(profile.sample_size());
  const double d = static_cast<double>(profile.distinct_in_sample());
  const double q = std::min(r / static_cast<double>(n), 1.0);
  if (q >= 1.0) return Clamp(d, profile, n);
  KahanSum numerator;    // sum_i (1-q)^i f_i
  KahanSum denominator;  // sum_i i q (1-q)^{i-1} f_i
  double pow_term = 1.0 - q;  // (1-q)^i for i starting at 1
  for (std::uint64_t i = 1; i <= profile.max_multiplicity(); ++i) {
    const double fi = static_cast<double>(profile.f(i));
    numerator.Add(pow_term * fi);
    denominator.Add(static_cast<double>(i) * q * pow_term / (1.0 - q) * fi);
    pow_term *= 1.0 - q;
  }
  if (denominator.Value() <= 0.0) return Clamp(d, profile, n);
  const double f1 = static_cast<double>(profile.f(1));
  return Clamp(d + f1 * numerator.Value() / denominator.Value(), profile, n);
}

Result<double> HybridEstimator(const FrequencyProfile& profile,
                               std::uint64_t n) {
  EQUIHIST_RETURN_IF_ERROR(ValidateInputs(profile, n));
  const double once_seen_fraction =
      static_cast<double>(profile.f(1)) /
      static_cast<double>(profile.sample_size());
  if (once_seen_fraction < 0.1) {
    return ChaoLeeEstimator(profile, n);
  }
  return PaperEstimator(profile, n);
}

std::string_view DistinctEstimatorKindToString(DistinctEstimatorKind kind) {
  switch (kind) {
    case DistinctEstimatorKind::kPaper:
      return "paper-gee";
    case DistinctEstimatorKind::kSampleDistinct:
      return "sample-distinct";
    case DistinctEstimatorKind::kNaiveScaleUp:
      return "naive-scale-up";
    case DistinctEstimatorKind::kGoodman:
      return "goodman";
    case DistinctEstimatorKind::kChao:
      return "chao";
    case DistinctEstimatorKind::kChaoLee:
      return "chao-lee";
    case DistinctEstimatorKind::kJackknife:
      return "jackknife-1";
    case DistinctEstimatorKind::kSecondOrderJackknife:
      return "jackknife-2";
    case DistinctEstimatorKind::kShlosser:
      return "shlosser";
    case DistinctEstimatorKind::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Result<double> EstimateDistinct(DistinctEstimatorKind kind,
                                const FrequencyProfile& profile,
                                std::uint64_t n) {
  switch (kind) {
    case DistinctEstimatorKind::kPaper:
      return PaperEstimator(profile, n);
    case DistinctEstimatorKind::kSampleDistinct:
      return SampleDistinctCount(profile, n);
    case DistinctEstimatorKind::kNaiveScaleUp:
      return NaiveScaleUp(profile, n);
    case DistinctEstimatorKind::kGoodman:
      return GoodmanEstimator(profile, n);
    case DistinctEstimatorKind::kChao:
      return ChaoEstimator(profile, n);
    case DistinctEstimatorKind::kChaoLee:
      return ChaoLeeEstimator(profile, n);
    case DistinctEstimatorKind::kJackknife:
      return JackknifeEstimator(profile, n);
    case DistinctEstimatorKind::kSecondOrderJackknife:
      return SecondOrderJackknifeEstimator(profile, n);
    case DistinctEstimatorKind::kShlosser:
      return ShlosserEstimator(profile, n);
    case DistinctEstimatorKind::kHybrid:
      return HybridEstimator(profile, n);
  }
  return Status::InvalidArgument("unknown estimator kind");
}

}  // namespace equihist
