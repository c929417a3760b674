#ifndef EQUIHIST_DISTINCT_ESTIMATORS_H_
#define EQUIHIST_DISTINCT_ESTIMATORS_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "distinct/frequency_profile.h"

namespace equihist {

// Distinct-value estimators (Section 6). Each maps a sample's frequency
// profile plus the population size n to an estimate of d, the number of
// distinct values in the column. All return InvalidArgument for an empty
// sample or n == 0, and clamp results into the feasible interval
// [distinct_in_sample, n]. (r may exceed n under sampling with
// replacement.)

// The paper's estimator (Section 6.2), later known in the literature as
// GEE (Guaranteed-Error Estimator):
//   e = sqrt(n/r) * max(f_1, 1) + sum_{j>=2} f_j .
// Values seen >= 2 times are certainly frequent enough to count once;
// each once-seen value stands for anywhere between 1 and n/r distinct
// values, and sqrt(n/r) is the geometric balance between those extremes —
// which is what makes the estimator worst-case optimal against the
// Theorem 8 lower bound sqrt(n ln(1/gamma) / r).
//
// It reads only r, D and f_1 of the sample. This core takes them directly,
// so a build can count them in its one pass without a profile
// (SummarizeSample); the profile overload calls it.
Result<double> PaperEstimator(std::uint64_t sample_size,
                              std::uint64_t distinct_in_sample,
                              std::uint64_t singletons, std::uint64_t n);
Result<double> PaperEstimator(const FrequencyProfile& profile, std::uint64_t n);

// The raw number of distinct values in the sample, D. Always an
// underestimate in expectation; shown as "numDVSamp" in Figures 9/10.
Result<double> SampleDistinctCount(const FrequencyProfile& profile,
                                   std::uint64_t n);

// Naive linear scale-up D * n / r; wildly optimistic for duplicated data.
// Included as a strawman baseline.
Result<double> NaiveScaleUp(const FrequencyProfile& profile, std::uint64_t n);

// Goodman (1949): the *unique unbiased* estimator of d under sampling
// without replacement,
//   d-hat = D + sum_{j=1}^{r} (-1)^{j+1} [(n-r+j-1)! (r-j)!] /
//                             [(n-r-1)! r!] * f_j.
// Cited by the paper (Section 6) among the classical estimators that give
// "exceedingly large errors" in practice: the alternating series has
// astronomically large terms, so the variance is enormous and the
// floating-point evaluation overflows for all but small r. Implemented
// with log-gamma arithmetic; the result is clamped into [D, n], and the
// estimator falls back to D when the series is numerically meaningless
// (non-finite). Unbiasedness is verified by simulation in the tests.
Result<double> GoodmanEstimator(const FrequencyProfile& profile,
                                std::uint64_t n);

// Chao (1984): D + f_1^2 / (2 f_2); the bias-corrected form
// D + f_1 (f_1 - 1) / 2 is used when f_2 = 0.
Result<double> ChaoEstimator(const FrequencyProfile& profile, std::uint64_t n);

// Chao & Lee (1992): coverage-based estimator with a squared coefficient
// of variation correction; the classical choice for skewed data.
Result<double> ChaoLeeEstimator(const FrequencyProfile& profile,
                                std::uint64_t n);

// First-order jackknife (Burnham & Overton 1978/79, used in databases by
// Ozsoyoglu et al.): D + f_1 (r-1)/r.
Result<double> JackknifeEstimator(const FrequencyProfile& profile,
                                  std::uint64_t n);

// Second-order jackknife: D + (2r-3)/r f_1 - (r-2)^2 / (r(r-1)) f_2.
Result<double> SecondOrderJackknifeEstimator(const FrequencyProfile& profile,
                                             std::uint64_t n);

// Shlosser (1981): assumes Bernoulli sampling rate q = r/n;
// D + f_1 * sum_i (1-q)^i f_i / sum_i i q (1-q)^{i-1} f_i.
Result<double> ShlosserEstimator(const FrequencyProfile& profile,
                                 std::uint64_t n);

// The hybrid variant the paper sketches (Section 6.2: "a hybrid variant of
// our estimator which is expected to perform even better in practice").
// No formula is given in the conference paper, so this implementation
// follows the stated intuition: when the sample's coverage of the data is
// evidently high (few once-seen values: f_1/r small), low-frequency values
// are no longer ambiguous and a coverage-based correction (Chao-Lee) is
// more accurate; otherwise fall back to the worst-case-safe paper
// estimator. The 10% once-seen threshold is our choice, documented in
// DESIGN.md.
Result<double> HybridEstimator(const FrequencyProfile& profile,
                               std::uint64_t n);

// Dispatch surface so harnesses can sweep estimators uniformly.
enum class DistinctEstimatorKind {
  kPaper,
  kSampleDistinct,
  kNaiveScaleUp,
  kGoodman,
  kChao,
  kChaoLee,
  kJackknife,
  kSecondOrderJackknife,
  kShlosser,
  kHybrid,
};

std::string_view DistinctEstimatorKindToString(DistinctEstimatorKind kind);

Result<double> EstimateDistinct(DistinctEstimatorKind kind,
                                const FrequencyProfile& profile,
                                std::uint64_t n);

}  // namespace equihist

#endif  // EQUIHIST_DISTINCT_ESTIMATORS_H_
