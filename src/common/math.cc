#include "common/math.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace equihist {

double StableSum(std::span<const double> values) {
  KahanSum sum;
  for (double v : values) sum.Add(v);
  return sum.Value();
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return StableSum(values) / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double mean = Mean(values);
  KahanSum sum;
  for (double v : values) sum.Add((v - mean) * (v - mean));
  return sum.Value() / static_cast<double>(values.size());
}

double GeneralizedHarmonic(std::uint64_t n, double s) {
  KahanSum sum;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum.Add(std::pow(static_cast<double>(i), -s));
  }
  return sum.Value();
}

double LogBinomial(std::uint64_t n, std::uint64_t k) {
  assert(k <= n);
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double HoeffdingTwoSidedTail(double r, double t) {
  if (r <= 0.0) return 1.0;
  const double exponent = -2.0 * t * t / r;
  const double bound = 2.0 * std::exp(exponent);
  return bound < 1.0 ? bound : 1.0;
}

std::int64_t BinarySearchFirstTrue(
    std::int64_t lo, std::int64_t hi,
    const std::function<bool(std::int64_t)>& pred) {
  if (lo > hi) return hi + 1;
  std::int64_t left = lo;
  std::int64_t right = hi;
  std::int64_t result = hi + 1;
  while (left <= right) {
    const std::int64_t mid = left + (right - left) / 2;
    if (pred(mid)) {
      result = mid;
      right = mid - 1;
    } else {
      left = mid + 1;
    }
  }
  return result;
}

std::vector<std::uint64_t> ApportionProportionally(
    std::span<const double> weights, std::uint64_t total) {
  assert(!weights.empty());
  const std::size_t d = weights.size();
  KahanSum weight_sum;
  for (double w : weights) weight_sum.Add(w);
  const double total_weight = weight_sum.Value();

  std::vector<std::uint64_t> counts(d, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(d);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < d; ++i) {
    const double ideal =
        (total_weight > 0.0)
            ? static_cast<double>(total) * (weights[i] / total_weight)
            : 0.0;
    const double floor_val = std::floor(ideal);
    counts[i] = static_cast<std::uint64_t>(floor_val);
    assigned += counts[i];
    remainders.emplace_back(ideal - floor_val, i);
  }
  // The leftover units go to the largest remainders, ties to the lower
  // index. Which entries those are is all that matters, not their order,
  // so a selection replaces a full sort.
  std::uint64_t leftover = (assigned <= total) ? total - assigned : 0;
  const auto top =
      static_cast<std::size_t>(std::min<std::uint64_t>(leftover, d));
  if (top > 0 && top < d) {
    std::nth_element(remainders.begin(),
                     remainders.begin() + static_cast<std::ptrdiff_t>(top),
                     remainders.end(), [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first > b.first;
                       return a.second < b.second;
                     });
  }
  for (std::size_t i = 0; i < top; ++i) ++counts[remainders[i].second];
  leftover -= top;
  for (std::size_t i = 0; leftover > 0; i = (i + 1) % d) {
    ++counts[i];
    --leftover;
  }
  return counts;
}

double ChiSquareStatistic(std::span<const std::uint64_t> observed,
                          std::span<const double> expected) {
  assert(observed.size() == expected.size());
  KahanSum stat;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0.0) continue;
    const double diff = static_cast<double>(observed[i]) - expected[i];
    stat.Add(diff * diff / expected[i]);
  }
  return stat.Value();
}

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double plow = 0.02425;
  static constexpr double phigh = 1.0 - plow;

  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > phigh) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double ChiSquareCriticalValue(double dof, double upper_tail_prob) {
  assert(dof > 0.0);
  assert(upper_tail_prob > 0.0 && upper_tail_prob < 1.0);
  // Wilson-Hilferty: X^2_k(alpha) ~= k * (1 - 2/(9k) + z_alpha sqrt(2/(9k)))^3.
  const double z = NormalQuantile(1.0 - upper_tail_prob);
  const double term = 1.0 - 2.0 / (9.0 * dof) + z * std::sqrt(2.0 / (9.0 * dof));
  return dof * term * term * term;
}

}  // namespace equihist
