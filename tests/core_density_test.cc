#include "core/density.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "data/distribution.h"
#include "data/generator.h"
#include "data/value_set.h"
#include "distinct/frequency_profile.h"
#include "sampling/row_sampler.h"

namespace equihist {
namespace {

TEST(DensityTest, AllDistinctIsZero) {
  const ValueSet data = ValueSet::FromFrequencies(*MakeAllDistinct(1000));
  EXPECT_DOUBLE_EQ(ComputeDensity(data.sorted_values()), 0.0);
}

TEST(DensityTest, AllIdenticalIsOne) {
  const ValueSet data = ValueSet::FromFrequencies(*MakeConstant(1000, 5));
  EXPECT_DOUBLE_EQ(ComputeDensity(data.sorted_values()), 1.0);
}

TEST(DensityTest, DegenerateSizes) {
  EXPECT_EQ(ComputeDensity({}), 0.0);
  EXPECT_EQ(ComputeDensity(std::vector<Value>{42}), 0.0);
}

TEST(DensityTest, TwoValueExample) {
  // {1, 1, 2, 2}: P(equal pair) = (2*1 + 2*1) / (4*3) = 1/3.
  EXPECT_NEAR(ComputeDensity(std::vector<Value>{1, 1, 2, 2}), 1.0 / 3.0,
              1e-12);
}

TEST(DensityTest, UniformDupMatchesClosedForm) {
  // d values, multiplicity m: density = d*m*(m-1) / (n*(n-1)).
  const std::uint64_t d = 50;
  const std::uint64_t m = 20;
  const std::uint64_t n = d * m;
  const ValueSet data = ValueSet::FromFrequencies(*MakeUniformDup(n, d));
  const double expected = static_cast<double>(d * m * (m - 1)) /
                          static_cast<double>(n * (n - 1));
  EXPECT_NEAR(ComputeDensity(data.sorted_values()), expected, 1e-12);
}

TEST(DensityTest, MoreSkewMeansMoreDensity) {
  auto density_of = [](double skew) {
    const auto freq =
        MakeZipf({.n = 100000, .domain_size = 1000, .skew = skew});
    const ValueSet data = ValueSet::FromFrequencies(*freq);
    return ComputeDensity(data.sorted_values());
  };
  EXPECT_LT(density_of(0.0), density_of(1.0));
  EXPECT_LT(density_of(1.0), density_of(2.0));
  EXPECT_LT(density_of(2.0), density_of(4.0));
}

TEST(DensityTest, SampleEstimateTracksTruth) {
  const auto freq = MakeZipf({.n = 200000, .domain_size = 2000, .skew = 2.0});
  const ValueSet data = ValueSet::FromFrequencies(*freq);
  const double truth = ComputeDensity(data.sorted_values());
  Rng rng(5);
  auto sample =
      SampleRowsWithoutReplacement(data.sorted_values(), 10000, rng);
  ASSERT_TRUE(sample.ok());
  std::sort(sample->begin(), sample->end());
  const double estimate = ComputeDensity(*sample);
  EXPECT_NEAR(estimate, truth, truth * 0.1);  // within 10% relative
}

// A multiset as (value, multiplicity) pairs, values ascending.
using Multiplicities = std::vector<std::pair<Value, std::uint64_t>>;

Multiplicities MultiplicitiesOf(const std::vector<Value>& sorted) {
  Multiplicities out;
  for (const Value v : sorted) {
    if (out.empty() || out.back().first != v) out.emplace_back(v, 0);
    ++out.back().second;
  }
  return out;
}

// What SummarizeSample promises, by the plain loop it replaced: a Kahan
// sum of the squared multiplicities as doubles, the distinct and once-seen
// values, and the heavy-hitter rule; and, for FromSorted, a profile grown
// one value at a time.
struct ReferenceSummary {
  double density = 0.0;
  std::vector<std::uint64_t> dense;
  std::uint64_t distinct = 0;
  std::uint64_t singletons = 0;
  std::uint64_t sample_size = 0;
  std::vector<CompressedHistogram::Singleton> heavy_hitters;
};

ReferenceSummary Reference(const Multiplicities& multiset,
                           std::uint64_t buckets, double scale,
                           bool with_profile = true) {
  ReferenceSummary ref;
  KahanSum sq_sum;
  for (const auto& [value, m] : multiset) ref.sample_size += m;
  const double ideal = static_cast<double>(ref.sample_size) /
                       static_cast<double>(buckets);
  for (const auto& [value, m] : multiset) {
    const auto c = static_cast<double>(m);
    sq_sum.Add(c * c);
    if (with_profile) {
      if (m >= ref.dense.size()) ref.dense.resize(m + 1, 0);
      ++ref.dense[m];
    }
    ++ref.distinct;
    if (m == 1) ++ref.singletons;
    if (c > ideal) {
      const auto scaled =
          static_cast<std::uint64_t>(std::llround(c * scale));
      ref.heavy_hitters.push_back({value, std::max<std::uint64_t>(scaled, 1)});
    }
  }
  if (ref.sample_size > 1) {
    const auto nd = static_cast<double>(ref.sample_size);
    ref.density = (sq_sum.Value() - nd) / (nd * nd - nd);
  }
  return ref;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The storage behind the three views of one multiset: its elements, its
// runs, and a key window with `below` empty slots before its smallest key
// and `above` after its largest.
struct Views {
  std::vector<Value> elements;
  std::vector<Value> values;
  std::vector<std::uint64_t> run_cumulative;
  Value base = 0;
  std::vector<std::uint64_t> window;

  Views(const Multiplicities& multiset, std::uint64_t below,
        std::uint64_t above) {
    std::uint64_t total = 0;
    for (const auto& [value, m] : multiset) {
      elements.insert(elements.end(), m, value);
      values.push_back(value);
      run_cumulative.push_back(total += m);
    }
    base = static_cast<Value>(
        static_cast<std::uint64_t>(multiset.front().first) - below);
    const std::uint64_t slots =
        static_cast<std::uint64_t>(multiset.back().first) -
        static_cast<std::uint64_t>(base) + 1 + above;
    window.assign(slots, 0);
    for (const auto& [value, m] : multiset) {
      window[static_cast<std::uint64_t>(value) -
             static_cast<std::uint64_t>(base)] = m;
    }
    for (std::size_t i = 1; i < window.size(); ++i) window[i] += window[i - 1];
  }

  std::vector<SortedView> All() const {
    return {SortedView(elements), SortedView(values, run_cumulative),
            SortedView::Window(base, window)};
  }
};

void ExpectMatchesReference(SortedView view, const Multiplicities& multiset,
                            std::uint64_t buckets, double scale) {
  const ReferenceSummary ref = Reference(multiset, buckets, scale);
  const SampleStatistics stats = SummarizeSample(view, buckets, scale);
  EXPECT_EQ(Bits(stats.density), Bits(ref.density));
  EXPECT_EQ(stats.distinct, ref.distinct);
  EXPECT_EQ(stats.singletons, ref.singletons);
  EXPECT_EQ(stats.heavy_hitters, ref.heavy_hitters);
  EXPECT_EQ(Bits(ComputeDensity(view)), Bits(ref.density));
  // FromSorted, which no build calls, counts the whole profile.
  const FrequencyProfile profile = FrequencyProfile::FromSorted(view);
  const std::span<const std::uint64_t> dense = profile.dense();
  ASSERT_EQ(dense.size(), ref.dense.size());
  EXPECT_EQ(std::memcmp(dense.data(), ref.dense.data(),
                        dense.size() * sizeof(std::uint64_t)),
            0);
  EXPECT_EQ(profile.distinct_in_sample(), ref.distinct);
  EXPECT_EQ(profile.sample_size(), ref.sample_size);
}

// The final statistics' one pass against the plain reference loop, on
// span, runs and window views of the same multisets: Zipf keys with heavy
// hitters and multiplicities past the profile's in-place counters,
// uniform and duplicate-free keys, one element, and windows with empty
// edge slots and at INT64_MIN and INT64_MAX.
TEST(SummarizeSampleTest, MatchesThePlainLoopOnEveryView) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  struct Case {
    const char* name;
    Multiplicities multiset;
    std::uint64_t below;
    std::uint64_t above;
  };
  std::vector<Case> cases;
  for (const double skew : {1.0, 2.0}) {
    const ValueSet zipf = ValueSet::FromFrequencies(
        *MakeZipf({.n = 60000, .domain_size = 3000, .skew = skew}));
    cases.push_back({"zipf", MultiplicitiesOf(zipf.sorted_values()), 3, 2});
  }
  Rng rng(8);
  std::vector<Value> uniform(5000);
  for (Value& v : uniform) v = -500 + rng.NextInRange(0, 999);
  std::sort(uniform.begin(), uniform.end());
  cases.push_back({"uniform", MultiplicitiesOf(uniform), 0, 0});
  cases.push_back(
      {"distinct",
       MultiplicitiesOf(
           ValueSet::FromFrequencies(*MakeAllDistinct(3000)).sorted_values()),
       1, 0});
  cases.push_back({"one", {{42, 1}}, 0, 0});
  cases.push_back({"min", {{kMin, 3}, {kMin + 1, 1}, {kMin + 5, 9000}}, 0, 4});
  cases.push_back({"max", {{kMax - 6, 2}, {kMax - 4, 5000}, {kMax, 7}}, 2, 0});
  for (const Case& c : cases) {
    const Views views(c.multiset, c.below, c.above);
    for (const std::uint64_t buckets : {1u, 8u, 200u, 100000u}) {
      const double scale = 1.0 + static_cast<double>(buckets) / 7.0;
      for (const SortedView& view : views.All()) {
        SCOPED_TRACE(testing::Message()
                     << c.name << " buckets " << buckets << " window "
                     << view.is_window() << " entries "
                     << view.values().size());
        ExpectMatchesReference(view, c.multiset, buckets, scale);
      }
    }
  }
}

// The density's sum of squares is exact. Below 2^53 that is what the Kahan
// sum of the squares as doubles gave, bit for bit; above it the result is
// the exact sum rounded once. Runs views of 2^26 to 2^27 copies; the
// reference builds no profile, whose dense array would hold one entry per
// multiplicity.
TEST(SummarizeSampleTest, DensityIsTheExactSumOfSquaresRoundedOnce) {
  constexpr std::uint64_t k26 = std::uint64_t{1} << 26;
  constexpr std::uint64_t k27 = std::uint64_t{1} << 27;
  const std::pair<Multiplicities, bool> cases[] = {
      // 2^53 - 2^27 + 1, then + 9 + 1.
      {{{1, k26}, {2, k26 - 1}}, true},
      {{{1, k26}, {2, k26 - 1}, {5, 3}, {9, 1}}, true},
      // 2^53 + 1 and 2^54 - 2^28 + 26: both need more than 53 bits.
      {{{1, k26}, {2, k26}, {3, 1}}, false},
      {{{-4, k27 - 1}, {7, 5}}, false},
      {{{1, k27}, {2, k27 - 3}, {3, 77}}, false},
  };
  for (const auto& [multiset, below_2_53] : cases) {
    std::vector<Value> values;
    std::vector<std::uint64_t> cumulative;
    std::uint64_t n = 0;
    std::uint64_t exact = 0;  // below 2^64 for every case
    for (const auto& [value, m] : multiset) {
      values.push_back(value);
      cumulative.push_back(n += m);
      exact += m * m;
    }
    SCOPED_TRACE(testing::Message() << "sum of squares " << exact);
    ASSERT_EQ(exact < (std::uint64_t{1} << 53), below_2_53);
    const SortedView view(values, cumulative);
    const double nd = static_cast<double>(n);
    // One rounding: a long double holds a 64-bit integer exactly.
    const double rounded =
        static_cast<double>(static_cast<long double>(exact));
    const double expected = (rounded - nd) / (nd * nd - nd);
    const ReferenceSummary ref = Reference(multiset, 4, 2.0, false);
    const SampleStatistics stats = SummarizeSample(view, 4, 2.0);
    EXPECT_EQ(Bits(stats.density), Bits(expected));
    EXPECT_EQ(Bits(ComputeDensity(view)), Bits(expected));
    EXPECT_EQ(stats.distinct, ref.distinct);
    EXPECT_EQ(stats.singletons, ref.singletons);
    EXPECT_EQ(stats.heavy_hitters, ref.heavy_hitters);
    if (below_2_53) {
      EXPECT_EQ(Bits(stats.density), Bits(ref.density));
    }
  }
}

}  // namespace
}  // namespace equihist
