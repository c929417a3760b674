#include "sampling/sample.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "sampling/row_sampler.h"

namespace equihist {
namespace {

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();

// The runs of a sorted multiset: its distinct values and, for each, the
// number of elements at or below it.
Runs RunsOf(const std::vector<Value>& sorted) {
  Runs runs;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) {
      runs.values.push_back(sorted[i]);
      runs.cumulative.push_back(0);
    }
    runs.cumulative.back() = i + 1;
  }
  return runs;
}

void ExpectRuns(const Sample& sample, const std::vector<Value>& sorted) {
  const Runs expected = RunsOf(sorted);
  EXPECT_EQ(sample.runs().values, expected.values);
  EXPECT_EQ(sample.runs().cumulative, expected.cumulative);
}

// Checks every rank query of `sample` against the plain sorted multiset
// `reference`: at each element, and one below and above it.
void ExpectMatchesReference(const Sample& sample,
                            const std::vector<Value>& reference) {
  ASSERT_EQ(sample.size(), reference.size());
  ASSERT_EQ(sample.empty(), reference.empty());
  ExpectRuns(sample, reference);
  auto count_less = [&](Value x) {
    return static_cast<std::uint64_t>(
        std::lower_bound(reference.begin(), reference.end(), x) -
        reference.begin());
  };
  auto count_less_equal = [&](Value x) {
    return static_cast<std::uint64_t>(
        std::upper_bound(reference.begin(), reference.end(), x) -
        reference.begin());
  };
  for (std::size_t rank = 0; rank < reference.size(); ++rank) {
    const Value x = reference[rank];
    ASSERT_EQ(sample.ValueAtRank(rank), x) << "rank " << rank;
    ASSERT_EQ(sample.CountLess(x), count_less(x)) << "x " << x;
    ASSERT_EQ(sample.CountLessEqual(x), count_less_equal(x)) << "x " << x;
    if (x != kMin) {
      ASSERT_EQ(sample.CountLessEqual(x - 1), count_less_equal(x - 1));
    }
    if (x != kMax) {
      ASSERT_EQ(sample.CountLess(x + 1), count_less(x + 1));
    }
  }
}

TEST(SampleTest, ConstructionSorts) {
  Sample sample({5, 1, 3, 3, 2});
  EXPECT_EQ(sample.size(), 5u);
  ExpectRuns(sample, {1, 2, 3, 3, 5});
}

TEST(SampleTest, DefaultIsEmpty) {
  Sample sample;
  EXPECT_TRUE(sample.empty());
  EXPECT_EQ(sample.size(), 0u);
  EXPECT_EQ(sample.CountLessEqual(0), 0u);
}

TEST(SampleTest, MergeKeepsSortedMultiset) {
  Sample sample({4, 2, 9});
  sample.Merge(std::vector<Value>{-5, 2, 3, 10});
  ExpectRuns(sample, {-5, 2, 2, 3, 4, 9, 10});
}

TEST(SampleTest, MergeIntoEmpty) {
  Sample sample;
  sample.Merge(std::vector<Value>{1, 7});
  ExpectRuns(sample, {1, 7});
}

TEST(SampleTest, MergeEmptyBatchIsNoop) {
  Sample sample({1, 2});
  sample.Merge({});
  EXPECT_EQ(sample.size(), 2u);
  ExpectRuns(sample, {1, 2});
}

// A sorted batch that repeats values, and runs whose values the sample
// already holds, add to the existing runs instead of appending new ones.
TEST(SampleTest, MergeAddsToRepeatedValues) {
  Sample sample({3, 3, 8});
  sample.Merge(std::vector<Value>{1, 3, 3, 3, 9, 9});
  ExpectRuns(sample, {1, 3, 3, 3, 3, 3, 8, 9, 9});
  const std::vector<Value> values = {3, 8, 10};
  const std::vector<std::uint64_t> cumulative = {4, 5, 7};
  sample.Merge(SortedView(values, cumulative));
  ExpectRuns(sample,
             {1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 8, 8, 9, 9, 10, 10});
}

TEST(SampleTest, CountLessEqual) {
  Sample sample({1, 3, 3, 7});
  EXPECT_EQ(sample.CountLessEqual(0), 0u);
  EXPECT_EQ(sample.CountLessEqual(3), 3u);
  EXPECT_EQ(sample.CountLessEqual(7), 4u);
  EXPECT_EQ(sample.CountLess(3), 1u);
  EXPECT_EQ(sample.CountLess(8), 4u);
}

TEST(SampleTest, ValueAtRank) {
  Sample sample({9, 5, 5, 1});
  EXPECT_EQ(sample.ValueAtRank(0), 1);
  EXPECT_EQ(sample.ValueAtRank(1), 5);
  EXPECT_EQ(sample.ValueAtRank(2), 5);
  EXPECT_EQ(sample.ValueAtRank(3), 9);
}

TEST(SampleTest, ManyMergesStaySorted) {
  Sample sample;
  std::vector<Value> reference;
  for (int i = 0; i < 20; ++i) {
    const std::vector<Value> batch = {static_cast<Value>(i),
                                      static_cast<Value>(100 - i)};
    sample.Merge(batch);
    reference.insert(reference.end(), batch.begin(), batch.end());
  }
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(sample.size(), 40u);
  ExpectMatchesReference(sample, reference);
}

TEST(SortOrCountTest, CountsWhenTheKeyRangeIsSmallerThanTheBatch) {
  // Range 4 < 6 keys: counted; the batch keeps its page order.
  std::vector<Value> batch = {7, 3, 7, 5, 3, 7};
  const std::vector<Value> original = batch;
  Runs counted;
  const SortedView view = SortOrCount(batch, counted);
  EXPECT_EQ(batch, original);
  EXPECT_EQ(counted.values, (std::vector<Value>{3, 5, 7}));
  EXPECT_EQ(counted.cumulative, (std::vector<std::uint64_t>{2, 3, 6}));
  EXPECT_EQ(view.size(), 6u);
  EXPECT_EQ(view.values().size(), 3u);
}

TEST(SortOrCountTest, SortsWhenTheKeyRangeReachesTheBatchSize) {
  // Range 3 = 3 keys: sorted in place and viewed as runs of one.
  std::vector<Value> batch = {4, 1, 4};
  Runs counted;
  const SortedView view = SortOrCount(batch, counted);
  EXPECT_EQ(batch, (std::vector<Value>{1, 4, 4}));
  EXPECT_TRUE(counted.values.empty());
  EXPECT_EQ(view.values().data(), batch.data());
  EXPECT_EQ(view.size(), 3u);
}

TEST(SortOrCountTest, ExtremeKeysDoNotOverflow) {
  // max - min is 2^64 - 1, where range + 1 would wrap to 0: sorted.
  std::vector<Value> wide = {kMax, 0, kMin, kMax, kMin};
  Runs counted;
  SortOrCount(wide, counted);
  EXPECT_EQ(wide, (std::vector<Value>{kMin, kMin, 0, kMax, kMax}));
  // Narrow ranges at either end of the domain are counted; min + offset
  // wraps back to the right values.
  std::vector<Value> low = {kMin + 1, kMin, kMin + 1};
  SortOrCount(low, counted);
  EXPECT_EQ(counted.values, (std::vector<Value>{kMin, kMin + 1}));
  EXPECT_EQ(counted.cumulative, (std::vector<std::uint64_t>{1, 3}));
  std::vector<Value> high = {kMax, kMax - 1, kMax};
  SortOrCount(high, counted);
  EXPECT_EQ(counted.values, (std::vector<Value>{kMax - 1, kMax}));
  EXPECT_EQ(counted.cumulative, (std::vector<std::uint64_t>{1, 3}));
}

// A batch of `size` keys of one shape.
std::vector<Value> MakeBatch(int shape, std::size_t size, Rng& rng,
                             const ValueSet& zipf) {
  std::vector<Value> batch(size);
  switch (shape) {
    case 0:  // Zipf(1) over 2,000 values
      return SampleRowsWithReplacement(zipf.sorted_values(), size, rng);
    case 1:  // all equal
      std::fill(batch.begin(), batch.end(), -7);
      return batch;
    case 2:  // negative only, range ~3,000
      for (Value& x : batch) x = -1 - rng.NextInRange(0, 3000);
      return batch;
    case 3:  // negative only, range 2^40
      for (Value& x : batch) x = -1 - rng.NextInRange(0, Value{1} << 40);
      return batch;
    default:  // INT64_MIN beside INT64_MAX, and full-width keys between
      for (Value& x : batch) x = static_cast<Value>(rng.Next());
      batch[0] = kMin;
      batch[size - 1] = kMax;
      return batch;
  }
}

// Property: merging random batches in random order, through SortOrCount
// with and without a pool, keeps Sample equal to a plain sorted multiset.
// Batch sizes fall on both sides of the counting cutoff (range < size) and
// of parallel_internal::kRadixMinElements.
TEST(SamplePropertyTest, MatchesSortedMultisetReference) {
  using parallel_internal::kRadixMinElements;
  const auto zipf_frequencies =
      MakeZipf({.n = 20000, .domain_size = 2000, .skew = 1.0});
  ASSERT_TRUE(zipf_frequencies.ok());
  const ValueSet zipf = ValueSet::FromFrequencies(*zipf_frequencies);
  // 20,000 is past kMinParallelElements, where the pool sorts in runs.
  const std::size_t sizes[] = {1,    7,    300,  kRadixMinElements - 1,
                               kRadixMinElements, 2500, 6000, 20000};
  ThreadPool pool(4);
  for (const std::uint64_t seed : {1u, 2u}) {
    Rng rng(seed);
    std::vector<std::vector<Value>> batches;
    for (int shape = 0; shape < 5; ++shape) {
      for (const std::size_t size : sizes) {
        batches.push_back(MakeBatch(shape, size, rng, zipf));
      }
    }
    for (std::size_t i = batches.size(); i > 1; --i) {
      std::swap(batches[i - 1], batches[rng.NextBounded(i)]);
    }
    Sample serial;
    Sample parallel;
    std::vector<Value> reference;
    Runs counted;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " batch " << b
                                      << " size " << batches[b].size());
      reference.insert(reference.end(), batches[b].begin(),
                       batches[b].end());
      std::sort(reference.begin(), reference.end());
      std::vector<Value> copy = batches[b];
      serial.Merge(SortOrCount(copy, counted, nullptr));
      copy = batches[b];
      parallel.Merge(SortOrCount(copy, counted, &pool));
      ExpectMatchesReference(serial, reference);
      EXPECT_EQ(parallel.runs().values, serial.runs().values);
      EXPECT_EQ(parallel.runs().cumulative, serial.runs().cumulative);
    }
  }
}

}  // namespace
}  // namespace equihist
