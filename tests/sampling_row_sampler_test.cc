#include "sampling/row_sampler.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "data/distribution.h"
#include "data/generator.h"

namespace equihist {
namespace {

std::vector<Value> Iota(std::uint64_t n) {
  std::vector<Value> values(n);
  for (std::uint64_t i = 0; i < n; ++i) values[i] = static_cast<Value>(i);
  return values;
}

TEST(RowSamplerTest, WithReplacementSizeAndMembership) {
  const std::vector<Value> population = Iota(100);
  Rng rng(1);
  const auto sample = SampleRowsWithReplacement(population, 250, rng);
  EXPECT_EQ(sample.size(), 250u);
  for (Value v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RowSamplerTest, WithReplacementCanExceedPopulation) {
  const std::vector<Value> population = Iota(10);
  Rng rng(2);
  EXPECT_EQ(SampleRowsWithReplacement(population, 100, rng).size(), 100u);
}

TEST(RowSamplerTest, WithoutReplacementIsSubMultiset) {
  const std::vector<Value> population = Iota(1000);
  Rng rng(3);
  const auto sample = SampleRowsWithoutReplacement(population, 100, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 100u);
  // Distinct population => sample has no repeats.
  std::vector<Value> sorted = *sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(RowSamplerTest, WithoutReplacementLargeFractionUsesSequentialPath) {
  const std::vector<Value> population = Iota(100);
  Rng rng(4);
  const auto sample = SampleRowsWithoutReplacement(population, 90, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 90u);
  std::vector<Value> sorted = *sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(RowSamplerTest, WithoutReplacementFullPopulation) {
  const std::vector<Value> population = Iota(50);
  Rng rng(5);
  auto sample = SampleRowsWithoutReplacement(population, 50, rng);
  ASSERT_TRUE(sample.ok());
  std::sort(sample->begin(), sample->end());
  EXPECT_EQ(*sample, population);
}

TEST(RowSamplerTest, WithoutReplacementZero) {
  const std::vector<Value> population = Iota(50);
  Rng rng(6);
  const auto sample = SampleRowsWithoutReplacement(population, 0, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_TRUE(sample->empty());
}

TEST(RowSamplerTest, WithoutReplacementRejectsOversample) {
  const std::vector<Value> population = Iota(10);
  Rng rng(7);
  EXPECT_FALSE(SampleRowsWithoutReplacement(population, 11, rng).ok());
}

TEST(RowSamplerTest, WithoutReplacementUniformityChiSquare) {
  // Each of 20 elements should appear in a 5-element sample with p=1/4.
  const std::vector<Value> population = Iota(20);
  std::map<Value, std::uint64_t> hits;
  Rng rng(8);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto sample = SampleRowsWithoutReplacement(population, 5, rng);
    ASSERT_TRUE(sample.ok());
    for (Value v : *sample) ++hits[v];
  }
  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  for (Value v = 0; v < 20; ++v) {
    observed.push_back(hits[v]);
    expected.push_back(trials * 5.0 / 20.0);
  }
  const double stat = ChiSquareStatistic(observed, expected);
  EXPECT_LT(stat, ChiSquareCriticalValue(19.0, 0.001));
}

TEST(RowSamplerTest, BernoulliRespectsRate) {
  const std::vector<Value> population = Iota(20000);
  Rng rng(9);
  const auto sample = SampleRowsBernoulli(population, 0.1, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_NEAR(static_cast<double>(sample->size()), 2000.0, 200.0);
}

TEST(RowSamplerTest, BernoulliEdgeRates) {
  const std::vector<Value> population = Iota(100);
  Rng rng(10);
  EXPECT_EQ(SampleRowsBernoulli(population, 0.0, rng)->size(), 0u);
  EXPECT_EQ(SampleRowsBernoulli(population, 1.0, rng)->size(), 100u);
  EXPECT_FALSE(SampleRowsBernoulli(population, 1.5, rng).ok());
  EXPECT_FALSE(SampleRowsBernoulli(population, -0.5, rng).ok());
}

}  // namespace
}  // namespace equihist
