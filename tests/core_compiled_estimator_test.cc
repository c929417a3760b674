#include "core/compiled_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/histogram.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "data/workload.h"

namespace equihist {
namespace {

constexpr Value kValueMin = std::numeric_limits<Value>::min();
constexpr Value kValueMax = std::numeric_limits<Value>::max();

// The documented numerical contract: compiled estimates agree with the
// reference loop within a handful of ulps of the largest bucket count.
double Tolerance(const Histogram& histogram) {
  std::uint64_t max_count = 0;
  for (const std::uint64_t c : histogram.counts()) {
    max_count = std::max(max_count, c);
  }
  return 1e-10 * (1.0 + static_cast<double>(max_count));
}

// Asserts the compiled estimator matches the reference on `query`.
void ExpectAgreement(const Histogram& histogram,
                     const CompiledEstimator& compiled,
                     const RangeQuery& query) {
  const double reference = EstimateRangeCount(histogram, query);
  const double fast = compiled.EstimateRangeCount(query);
  ASSERT_NEAR(fast, reference, Tolerance(histogram))
      << "query (" << query.lo << ", " << query.hi << "] over k="
      << histogram.bucket_count() << " fences [" << histogram.lower_fence()
      << ", " << histogram.upper_fence() << "]";
}

// A random histogram with optional duplicated-separator runs: random
// non-decreasing separators (repetition probability `dup_prob`) between
// random fences, random counts.
Histogram RandomHistogram(Rng& rng, std::uint64_t k, Value lower, Value upper,
                          double dup_prob) {
  std::vector<Value> separators;
  separators.reserve(k - 1);
  Value prev = lower;
  for (std::uint64_t j = 0; j + 1 < k; ++j) {
    if (!separators.empty() && rng.NextDouble() < dup_prob) {
      separators.push_back(prev);  // extend a duplicated run
      continue;
    }
    // Keep separators strictly inside the fences so buckets of genuine
    // width exist alongside the spikes.
    const Value lo = prev;
    const Value hi = upper - 1;
    separators.push_back(lo >= hi ? lo : rng.NextInRange(lo, hi));
    prev = separators.back();
  }
  std::vector<std::uint64_t> counts;
  counts.reserve(k);
  for (std::uint64_t j = 0; j < k; ++j) {
    counts.push_back(static_cast<std::uint64_t>(rng.NextInRange(0, 5000)));
  }
  if (std::all_of(counts.begin(), counts.end(),
                  [](std::uint64_t c) { return c == 0; })) {
    counts[0] = 1;  // keep the histogram non-degenerate
  }
  return Histogram::Create(std::move(separators), std::move(counts), lower,
                           upper)
      .value();
}

// A query generator that mixes in-domain, boundary-aligned, out-of-domain,
// empty and reversed ranges.
RangeQuery RandomQuery(Rng& rng, const Histogram& histogram) {
  const Value lf = histogram.lower_fence();
  const Value uf = histogram.upper_fence();
  switch (rng.NextInRange(0, 5)) {
    case 0: {  // separator-aligned: exact agreement expected
      const auto& seps = histogram.separators();
      if (!seps.empty()) {
        const Value a = seps[static_cast<std::size_t>(
            rng.NextInRange(0, static_cast<std::int64_t>(seps.size()) - 1))];
        const Value b = seps[static_cast<std::size_t>(
            rng.NextInRange(0, static_cast<std::int64_t>(seps.size()) - 1))];
        return {std::min(a, b), std::max(a, b)};
      }
      return {lf, uf};
    }
    case 1:  // wide, overshooting both fences
      return {lf == kValueMin ? kValueMin : lf - 1,
              uf == kValueMax ? kValueMax : uf + 1};
    case 2: {  // empty / reversed
      const Value v = rng.NextInRange(lf, uf);
      return rng.NextDouble() < 0.5
                 ? RangeQuery{v, v}
                 : RangeQuery{std::max(v, lf + 1), std::max(v, lf + 1) - 1};
    }
    case 3: {  // entirely out of domain
      return rng.NextDouble() < 0.5
                 ? RangeQuery{uf, uf == kValueMax ? kValueMax : uf + 100}
                 : RangeQuery{lf == kValueMin ? kValueMin : lf - 100, lf};
    }
    default: {  // general in-domain range
      const Value a = rng.NextInRange(lf, uf);
      const Value b = rng.NextInRange(lf, uf);
      return {std::min(a, b), std::max(a, b)};
    }
  }
}

TEST(CompiledEstimatorTest, DifferentialAgainstReferenceOnRandomHistograms) {
  Rng rng(20260806);
  int cases = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t k =
        static_cast<std::uint64_t>(rng.NextInRange(1, 300));
    const Value lower = rng.NextInRange(-1000000, 999999);
    const Value upper = rng.NextInRange(lower + 1, 1000000);
    const double dup_prob = (trial % 3 == 0) ? 0.4 : 0.0;
    const Histogram histogram = RandomHistogram(rng, k, lower, upper, dup_prob);
    const CompiledEstimator compiled(histogram);
    ASSERT_EQ(compiled.bucket_count(), histogram.bucket_count());
    ASSERT_DOUBLE_EQ(compiled.total(),
                     static_cast<double>(histogram.total()));
    for (int q = 0; q < 80; ++q) {
      ExpectAgreement(histogram, compiled, RandomQuery(rng, histogram));
      ++cases;
    }
  }
  // Thousands of randomized cases, per the differential-test contract.
  EXPECT_GE(cases, 4000);
}

TEST(CompiledEstimatorTest, DifferentialWithExtremeFences) {
  // Buckets spanning more than half the int64 domain: interpolation must
  // not overflow (this is what ValueDistance exists for).
  Rng rng(7);
  const Histogram histogram =
      RandomHistogram(rng, 17, kValueMin, kValueMax, 0.25);
  const CompiledEstimator compiled(histogram);
  ExpectAgreement(histogram, compiled, {kValueMin, kValueMax});
  ExpectAgreement(histogram, compiled, {kValueMin, 0});
  ExpectAgreement(histogram, compiled, {0, kValueMax});
  ExpectAgreement(histogram, compiled, {kValueMin, kValueMin});
  ExpectAgreement(histogram, compiled, {kValueMax, kValueMax});
  for (int q = 0; q < 500; ++q) {
    ExpectAgreement(histogram, compiled, RandomQuery(rng, histogram));
  }
}

TEST(CompiledEstimatorTest, DifferentialOnBuiltHistograms) {
  // Histograms produced by the real builder over skewed data, where heavy
  // values become genuine duplicated-separator runs.
  Rng rng(99);
  for (const double skew : {0.0, 1.0, 2.0}) {
    const auto freqs = MakeZipf({.n = 20000,
                                 .domain_size = 500,
                                 .skew = skew,
                                 .seed = 5});
    ASSERT_TRUE(freqs.ok());
    const ValueSet data = ValueSet::FromFrequencies(*freqs);
    const Histogram histogram = BuildPerfectHistogram(data, 50).value();
    const CompiledEstimator compiled(histogram);
    for (int q = 0; q < 400; ++q) {
      ExpectAgreement(histogram, compiled, RandomQuery(rng, histogram));
    }
  }
}

TEST(CompiledEstimatorTest, ExactOnSeparatorAlignedQueries) {
  // Aligned queries touch no partial bucket, so agreement is bit-for-bit.
  const auto h =
      Histogram::Create({100, 200, 300}, {10, 20, 30, 40}, 0, 400).value();
  const CompiledEstimator compiled(h);
  for (const Value lo : {0, 100, 200, 300}) {
    for (const Value hi : {0, 100, 200, 300, 400}) {
      EXPECT_EQ(compiled.EstimateRangeCount({lo, hi}),
                EstimateRangeCount(h, {lo, hi}))
          << lo << " " << hi;
    }
  }
}

TEST(CompiledEstimatorTest, SpikeSemanticsMatchReferenceExactly) {
  // The reference test's spike fixture: bucket (5,5] holds a 400-tuple
  // spike at value 5 (Section 5 duplicated-separator representation).
  const auto h =
      Histogram::Create({5, 5, 10}, {100, 400, 100, 100}, 0, 20).value();
  const CompiledEstimator compiled(h);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeCount({4, 5}),
                   100.0 / 5.0 * 1.0 + 400.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeCount({5, 20}), 200.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeCount({0, 20}), 700.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(5), 400.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(10), 0.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(4), 0.0);
}

TEST(CompiledEstimatorTest, SpikeMassOnLeadingRun) {
  // A duplicated run at the very first separator, and a triple run: the
  // spike buckets are every zero-width bucket of the run.
  const auto h =
      Histogram::Create({1, 1, 7, 7, 7}, {50, 60, 10, 70, 80, 5}, 1, 9)
          .value();
  const CompiledEstimator compiled(h);
  // Bucket 0 = (1,1] zero-width (lower fence == separator), bucket 1 =
  // (1,1] zero-width: the run at value 1 pins 50 + 60.
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(1), 110.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(7), 150.0);  // buckets (7,7] twice
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(9), 0.0);
}

TEST(CompiledEstimatorTest, BucketIndexMatchesHistogram) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t k =
        static_cast<std::uint64_t>(rng.NextInRange(1, 60));
    const Histogram histogram = RandomHistogram(rng, k, -500, 500, 0.3);
    const CompiledEstimator compiled(histogram);
    for (Value v = histogram.lower_fence();
         v <= histogram.upper_fence(); ++v) {
      ASSERT_EQ(compiled.BucketIndexForValue(v),
                histogram.BucketIndexForValue(v))
          << "value " << v << " trial " << trial;
    }
  }
}

TEST(CompiledEstimatorTest, CountAtMostIsAMonotoneCdf) {
  Rng rng(55);
  const Histogram histogram = RandomHistogram(rng, 40, 0, 10000, 0.2);
  const CompiledEstimator compiled(histogram);
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(histogram.lower_fence()), 0.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(histogram.upper_fence()),
                   static_cast<double>(histogram.total()));
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(kValueMax),
                   static_cast<double>(histogram.total()));
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(kValueMin), 0.0);
  double prev = 0.0;
  for (Value x = 0; x <= 10000; x += 13) {
    const double f = compiled.EstimateCountAtMost(x);
    EXPECT_GE(f, prev) << "CDF must be monotone at x=" << x;
    prev = f;
  }
}

TEST(CompiledEstimatorTest, DegenerateSingleBucketAndPointDomain) {
  // k = 1: no separators at all.
  const auto single = Histogram::Create({}, {42}, 0, 100).value();
  const CompiledEstimator one(single);
  EXPECT_DOUBLE_EQ(one.EstimateRangeCount({0, 100}), 42.0);
  EXPECT_DOUBLE_EQ(one.EstimateRangeCount({0, 50}), 21.0);
  EXPECT_DOUBLE_EQ(one.EstimateRangeCount({200, 300}), 0.0);
  EXPECT_EQ(one.BucketIndexForValue(50), single.BucketIndexForValue(50));

  // lower fence == upper fence: the whole domain is one point.
  const auto point = Histogram::Create({}, {7}, 5, 5).value();
  const CompiledEstimator pt(point);
  EXPECT_DOUBLE_EQ(pt.EstimateRangeCount({4, 5}),
                   EstimateRangeCount(point, {4, 5}));
  EXPECT_DOUBLE_EQ(pt.EstimateRangeCount({5, 6}),
                   EstimateRangeCount(point, {5, 6}));
  EXPECT_DOUBLE_EQ(pt.EstimateRangeCount({0, 10}),
                   EstimateRangeCount(point, {0, 10}));
}

TEST(CompiledEstimatorTest, SelectivityNormalizes) {
  const auto h =
      Histogram::Create({100, 200, 300}, {10, 20, 30, 40}, 0, 400).value();
  const CompiledEstimator compiled(h);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeSelectivity({0, 400}), 1.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeSelectivity({0, 100}), 0.1);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeSelectivity({500, 600}), 0.0);
}

// FNV-1a over the bit patterns of `values`: a compact pin of many doubles.
std::uint64_t BitsHash(const std::vector<double>& values) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xFF)) * 1099511628211ull;
    }
  }
  return h;
}

// Golden bits: a fixed histogram with duplicated-separator runs (one at
// the lower fence) and INT64 fences, and 800 range estimates, 400 prefix
// counts and 400 spike masses over queries drawn by a local LCG, so
// nothing outside this test moves the pinned values. The hashes were recorded from the four-array layout this
// estimator had before its per-bucket records; any change in an
// estimate's bits, by layout, operation order or contraction, changes
// them.
TEST(CompiledEstimatorTest, GoldenBitsOnAFixedSpikyHistogram) {
  const std::vector<Value> separators = {
      kValueMin, kValueMin, -4'000'000'000'000'000'000, -7'777'777,
      -1000, -1000, -1000, -3, 0, 0, 17, 250, 250, 99'991,
      1'000'000'007, 3'000'000'000'000'000'000, kValueMax - 1};
  std::vector<std::uint64_t> counts;
  for (std::size_t j = 0; j <= separators.size(); ++j) {
    counts.push_back(37 + 1009 * ((j * 7) % 11) + (j % 3) * 250'000);
  }
  const Histogram histogram =
      Histogram::Create(separators, counts, kValueMin, kValueMax).value();
  const CompiledEstimator compiled(histogram);
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  // Half the endpoints come from the separators (+-1), half are raw
  // 64-bit draws, so spikes, fences and interiors are all probed.
  const auto endpoint = [&]() -> Value {
    const std::uint64_t r = next();
    if ((r >> 63) != 0) return static_cast<Value>(next());
    const Value s = separators[(r >> 8) % separators.size()];
    const int nudge = static_cast<int>((r >> 4) % 3) - 1;
    if (nudge < 0 && s == kValueMin) return s;
    if (nudge > 0 && s == kValueMax) return s;
    return s + nudge;
  };
  std::vector<double> ranges;
  std::vector<double> at_most;
  std::vector<double> spikes;
  for (int q = 0; q < 400; ++q) {
    Value lo = endpoint();
    Value hi = endpoint();
    if (lo > hi) std::swap(lo, hi);
    ranges.push_back(compiled.EstimateRangeCount({lo, hi}));
    at_most.push_back(compiled.EstimateCountAtMost(hi));
    spikes.push_back(compiled.SpikeMassAt(lo));
  }
  // Point and narrow predicates (x - w, x], most inside one bucket, some
  // across a separator or a spike.
  std::vector<double> narrow;
  int one_bucket = 0;  // no separator in (lo, x]: both ends in one bucket
  for (int q = 0; q < 400; ++q) {
    const Value x = endpoint();
    const auto width = static_cast<Value>(1 + (next() >> 60) * (next() >> 58));
    const Value lo = x > kValueMin + width ? x - width : kValueMin;
    narrow.push_back(compiled.EstimateRangeCount({lo, x}));
    one_bucket += std::upper_bound(separators.begin(), separators.end(),
                                   lo) ==
                  std::upper_bound(separators.begin(), separators.end(), x);
  }
  EXPECT_GT(one_bucket, 100);
  EXPECT_LT(one_bucket, 300);
  EXPECT_EQ(BitsHash(ranges), 0xe2959f961ff53e53ull)
      << std::hex << BitsHash(ranges);
  EXPECT_EQ(BitsHash(at_most), 0x2117aa97ed979629ull)
      << std::hex << BitsHash(at_most);
  EXPECT_EQ(BitsHash(spikes), 0x9bf9e6c0bd13beceull)
      << std::hex << BitsHash(spikes);
  EXPECT_EQ(BitsHash(narrow), 0x3d46bbf3d2f8c37dull)
      << std::hex << BitsHash(narrow);
  EXPECT_EQ(compiled.total(), 4593494.0);
}

}  // namespace
}  // namespace equihist
