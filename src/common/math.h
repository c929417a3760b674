#ifndef EQUIHIST_COMMON_MATH_H_
#define EQUIHIST_COMMON_MATH_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace equihist {

// Compensated (Kahan-Babuska) summation. Used wherever long series of
// floating point terms are accumulated (error metrics over hundreds of
// buckets, harmonic numbers over millions of terms) so results do not
// drift with the summation order. Add is inline: summaries over a whole
// sample (SummarizeSample) call it once per distinct value.
class KahanSum {
 public:
  void Add(double x) {
    // Kahan-Babuska (Neumaier) variant: handles terms larger than the
    // running sum correctly.
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      compensation_ += (sum_ - t) + x;
    } else {
      compensation_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  double Value() const { return sum_ + compensation_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

// Sum of `values` using compensated summation.
double StableSum(std::span<const double> values);

// Mean of `values`; returns 0.0 for an empty span.
double Mean(std::span<const double> values);

// Population variance of `values`; returns 0.0 for an empty span.
double Variance(std::span<const double> values);

// Generalized harmonic number H_{n,s} = sum_{i=1..n} 1 / i^s.
// For s = 1 this is the ordinary harmonic number. Exact (compensated)
// summation up to n = 10^8; callers needing larger n should use
// HarmonicApprox. Precondition: n >= 0.
double GeneralizedHarmonic(std::uint64_t n, double s);

// ln(n choose k) via lgamma. Preconditions: 0 <= k <= n.
double LogBinomial(std::uint64_t n, std::uint64_t k);

// Hoeffding upper bound on P[|X - E[X]| >= t] for X a sum of r independent
// [0,1] variables: 2 * exp(-2 t^2 / r). This is the inequality behind the
// paper's Theorem 4 sampling bound; exposed so tests and docs can relate
// the implemented bounds back to first principles.
double HoeffdingTwoSidedTail(double r, double t);

// Finds the smallest integer x in [lo, hi] with pred(x) true, assuming pred
// is monotone (false...false true...true). Returns hi + 1 if pred is false
// on the whole range. Used by the bound calculators to invert closed-form
// trade-offs that are monotone but not analytically invertible.
std::int64_t BinarySearchFirstTrue(std::int64_t lo, std::int64_t hi,
                                   const std::function<bool(std::int64_t)>& pred);

// Rounds fractional shares proportional to `weights` (arbitrary positive
// scale) into integer counts summing exactly to `total`, using
// largest-remainder apportionment with deterministic tie-breaking. The
// workhorse behind synthetic-frequency generation and behind scaling a
// sample's bucket counts up to a population. weights must be non-empty.
std::vector<std::uint64_t> ApportionProportionally(
    std::span<const double> weights, std::uint64_t total);

// Pearson chi-square statistic for observed counts vs. expected counts.
// Terms with expected <= 0 are skipped. Used by the samplers' uniformity
// self-checks and by tests. Preconditions: observed.size() == expected.size().
double ChiSquareStatistic(std::span<const std::uint64_t> observed,
                          std::span<const double> expected);

// Approximate upper critical value of the chi-square distribution with
// `dof` degrees of freedom at the given upper-tail probability, using the
// Wilson-Hilferty cube approximation. Accurate to a few percent for
// dof >= 3, which is ample for the statistical sanity tests that use it.
double ChiSquareCriticalValue(double dof, double upper_tail_prob);

// Inverse of the standard normal CDF (Acklam's rational approximation,
// |error| < 1.2e-8). Used by ChiSquareCriticalValue and by confidence
// interval helpers in the experiment harness.
double NormalQuantile(double p);

}  // namespace equihist

#endif  // EQUIHIST_COMMON_MATH_H_
