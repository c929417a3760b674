#include "sampling/sample.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/error_metrics.h"
#include "core/histogram.h"
#include "core/histogram_builder.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "sampling/row_sampler.h"
#include "storage/page.h"

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

// The elements of a view, ascending, through ForEachDistinct.
std::vector<Value> Elements(SortedView view) {
  std::vector<Value> out;
  view.ForEachDistinct([&](Value v, std::uint64_t multiplicity) {
    out.insert(out.end(), multiplicity, v);
  });
  return out;
}

void ExpectMultiset(const Sample& sample, const std::vector<Value>& sorted) {
  EXPECT_EQ(Elements(sample.view()), sorted);
}

// Checks every rank query of `view` against the plain sorted multiset
// `reference`: at each element, one below and above it, and at both ends
// of the domain.
void ExpectMatchesReference(SortedView view,
                            const std::vector<Value>& reference) {
  ASSERT_EQ(view.size(), reference.size());
  ASSERT_EQ(view.empty(), reference.empty());
  EXPECT_EQ(Elements(view), reference);
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
  for (const Value x : {kMin, kMax}) {
    ASSERT_EQ(view.CountLess(x), count_less(x)) << "x " << x;
    ASSERT_EQ(view.CountLessEqual(x), count_less_equal(x)) << "x " << x;
  }
  if (reference.empty()) return;
  EXPECT_EQ(view.front(), reference.front());
  EXPECT_EQ(view.back(), reference.back());
  for (std::size_t rank = 0; rank < reference.size(); ++rank) {
    const Value x = reference[rank];
    ASSERT_EQ(view.ValueAtRank(rank), x) << "rank " << rank;
    ASSERT_EQ(view.CountLess(x), count_less(x)) << "x " << x;
    ASSERT_EQ(view.CountLessEqual(x), count_less_equal(x)) << "x " << x;
    if (x != kMin) {
      ASSERT_EQ(view.CountLessEqual(x - 1), count_less_equal(x - 1));
    }
    if (x != kMax) {
      ASSERT_EQ(view.CountLess(x + 1), count_less(x + 1));
    }
  }
}

void ExpectMatchesReference(const Sample& sample,
                            const std::vector<Value>& reference) {
  ASSERT_EQ(sample.size(), reference.size());
  ExpectMatchesReference(sample.view(), reference);
}

TEST(SampleTest, ConstructionSorts) {
  Sample sample({5, 1, 3, 3, 2});
  EXPECT_EQ(sample.size(), 5u);
  ExpectMultiset(sample, {1, 2, 3, 3, 5});
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
  ExpectMultiset(sample, {-5, 2, 2, 3, 4, 9, 10});
}

TEST(SampleTest, MergeIntoEmpty) {
  Sample sample;
  sample.Merge(std::vector<Value>{1, 7});
  ExpectMultiset(sample, {1, 7});
}

TEST(SampleTest, MergeEmptyBatchIsNoop) {
  Sample sample({1, 2});
  sample.Merge({});
  EXPECT_EQ(sample.size(), 2u);
  ExpectMultiset(sample, {1, 2});
}

// A sorted batch that repeats values, and runs whose values the sample
// already holds, add to the existing runs instead of appending new ones.
TEST(SampleTest, MergeAddsToRepeatedValues) {
  Sample sample({3, 3, 8});
  sample.Merge(std::vector<Value>{1, 3, 3, 3, 9, 9});
  ExpectMultiset(sample, {1, 3, 3, 3, 3, 3, 8, 9, 9});
  const std::vector<Value> values = {3, 8, 10};
  const std::vector<std::uint64_t> cumulative = {4, 5, 7};
  sample.Merge(SortedView(values, cumulative));
  ExpectMultiset(sample,
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

// A batch of `size` keys of one shape. In full pages of 64 keys, shapes 1
// and 5 store 1-byte offsets, shapes 0 and 2 mostly 2-byte ones, shape 6
// 4-byte ones and shapes 3 and 4 8-byte ones.
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
    case 5:  // range 200
      for (Value& x : batch) x = 5000 + rng.NextInRange(0, 200);
      return batch;
    case 6:  // range 2^20
      for (Value& x : batch) x = rng.NextInRange(0, Value{1} << 20);
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
      ExpectMultiset(parallel, reference);
    }
  }
}

// Cumulative counts of `sorted` over the `slots` keys from `base`.
std::vector<std::uint64_t> WindowOf(const std::vector<Value>& sorted,
                                    Value base, std::uint64_t slots) {
  std::vector<std::uint64_t> cumulative(slots, 0);
  for (const Value v : sorted) {
    ++cumulative[static_cast<std::uint64_t>(v) -
                 static_cast<std::uint64_t>(base)];
  }
  std::partial_sum(cumulative.begin(), cumulative.end(), cumulative.begin());
  return cumulative;
}

// The window form answers every rank query as the runs form of the same
// multiset does: mid-domain with INT64_MIN and INT64_MAX queries, with
// empty slots inside and at both edges, and at both ends of the domain.
TEST(SortedViewTest, WindowAnswersLikeRuns) {
  struct Case {
    std::vector<Value> sorted;
    Value base;
    std::uint64_t slots;
  };
  const Case cases[] = {
      {{-3, -3, 0, 2, 2, 2, 5}, -6, 14},
      {{7}, 7, 1},
      {{kMin, kMin, kMin + 1, kMin + 3}, kMin, 6},
      {{kMax - 2, kMax, kMax}, kMax - 4, 5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "base " << c.base);
    const Runs runs = RunsOf(c.sorted);
    const std::vector<std::uint64_t> cumulative =
        WindowOf(c.sorted, c.base, c.slots);
    const SortedView window = SortedView::Window(c.base, cumulative);
    ASSERT_TRUE(window.is_window());
    ASSERT_FALSE(runs.view().is_window());
    ExpectMatchesReference(window, c.sorted);
    ExpectMatchesReference(runs.view(), c.sorted);
    // Every key of the window and two beyond each edge, where they exist.
    for (std::int64_t d = -2; d < static_cast<std::int64_t>(c.slots) + 2;
         ++d) {
      Value x = 0;
      if (__builtin_add_overflow(c.base, d, &x)) continue;
      EXPECT_EQ(window.CountLess(x), runs.view().CountLess(x)) << "x " << x;
      EXPECT_EQ(window.CountLessEqual(x), runs.view().CountLessEqual(x))
          << "x " << x;
    }
  }
}

// `count` random ranks of a view of `size` elements, ascending, with 0 and
// size - 1 among them and repeats: each rank drawn is repeated a random 0 to
// 2 more times.
std::vector<std::uint64_t> AscendingRanks(std::uint64_t size,
                                          std::size_t count, Rng& rng) {
  std::vector<std::uint64_t> ranks = {0, size - 1};
  while (ranks.size() < count) {
    const std::uint64_t rank = rng.NextBounded(size);
    ranks.insert(ranks.end(), 1 + rng.NextBounded(3), rank);
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

// The batch rank query reads exactly what ValueAtRank reads, rank by rank,
// in every form of the view: a sorted span with repeats, runs, and windows
// with empty slots at both edges or holding INT64_MIN or INT64_MAX. The
// large cases make the walk gallop over long stretches of entries.
TEST(SortedViewTest, ValuesAtRanksMatchesValueAtRank) {
  Rng rng(21);
  struct Case {
    std::vector<Value> sorted;
    Value base;
    std::uint64_t slots;
  };
  std::vector<Case> cases = {
      {{-3, -3, 0, 2, 2, 2, 5}, -6, 14},
      {{7}, 7, 1},
      {{kMin, kMin, kMin + 1, kMin + 3}, kMin, 6},
      {{kMax - 2, kMax, kMax}, kMax - 4, 5},
  };
  // 3,000 elements over keys 100..5,099, a few heavy, most slots empty.
  Case sparse{{}, 90, 5030};
  for (int i = 0; i < 3000; ++i) {
    sparse.sorted.push_back(rng.NextBounded(4) == 0
                                ? 100 + static_cast<Value>(rng.NextBounded(8))
                                : 100 + rng.NextInRange(0, 4999));
  }
  std::sort(sparse.sorted.begin(), sparse.sorted.end());
  cases.push_back(sparse);
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "base " << c.base);
    const Runs runs = RunsOf(c.sorted);
    const std::vector<std::uint64_t> cumulative =
        WindowOf(c.sorted, c.base, c.slots);
    const SortedView views[] = {SortedView(c.sorted), runs.view(),
                                SortedView::Window(c.base, cumulative)};
    for (const SortedView& view : views) {
      SCOPED_TRACE(testing::Message()
                   << "window " << view.is_window() << " entries "
                   << view.values().size());
      for (const std::size_t count : {std::size_t{2}, std::size_t{9},
                                      std::size_t{200}, std::size_t{4000}}) {
        const std::vector<std::uint64_t> ranks =
            AscendingRanks(view.size(), count, rng);
        std::vector<Value> out(ranks.size());
        view.ValuesAtRanks(ranks, out);
        for (std::size_t q = 0; q < ranks.size(); ++q) {
          ASSERT_EQ(out[q], view.ValueAtRank(ranks[q])) << "rank " << ranks[q];
        }
      }
    }
  }
}

TEST(SortedViewTest, WindowOfEmptySlotsIsEmpty) {
  const std::vector<std::uint64_t> zeros(4, 0);
  const SortedView window = SortedView::Window(10, zeros);
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.CountLess(kMax), 0u);
  EXPECT_EQ(window.CountLessEqual(12), 0u);
  EXPECT_TRUE(Elements(window).empty());
}

// Pages holding `values` in order, `per_page` to a page.
std::vector<Page> MakePages(const std::vector<Value>& values,
                            std::uint32_t per_page) {
  std::vector<Page> pages;
  for (const Value v : values) {
    if (pages.empty() || pages.back().full()) pages.emplace_back(per_page);
    pages.back().Append(v);
  }
  return pages;
}

std::vector<const Page*> ViewsOf(const std::vector<Page>& pages) {
  std::vector<const Page*> views;
  for (const Page& page : pages) views.push_back(&page);
  return views;
}

// The partition ranks of a sorted multiset at `separators`, by the rule of
// Histogram::BucketIndexForValue, with plain binary searches.
std::vector<std::uint64_t> ReferenceRanks(const std::vector<Value>& sorted,
                                          std::span<const Value> separators) {
  std::vector<std::uint64_t> ranks;
  for (std::size_t j = 0; j < separators.size(); ++j) {
    const bool run_continues =
        j + 1 < separators.size() && separators[j + 1] == separators[j];
    const auto end = run_continues ? std::lower_bound(sorted.begin(),
                                                      sorted.end(),
                                                      separators[j])
                                   : std::upper_bound(sorted.begin(),
                                                      sorted.end(),
                                                      separators[j]);
    ranks.push_back(static_cast<std::uint64_t>(end - sorted.begin()));
  }
  return ranks;
}

// Adds `batch` as pages, checking the ranks Add records at `separators`
// against those of R and of the batch as plain sorted multisets, and the
// sample after it against R with the batch. Returns whether the sample
// holds a key window after the Add.
bool AddAndCheck(Sample& sample, std::vector<Value>& reference,
                    const std::vector<Value>& batch, ThreadPool* pool,
                    std::span<const Value> separators = {}) {
  const std::vector<Page> pages = MakePages(batch, 64);
  std::vector<Value> sorted_batch = batch;
  std::sort(sorted_batch.begin(), sorted_batch.end());
  Sample::BatchRanks ranks;
  sample.Add(ViewsOf(pages), separators, ranks, pool);
  EXPECT_EQ(ranks.before_size, reference.size());
  EXPECT_EQ(ranks.batch_size, batch.size());
  EXPECT_EQ(ranks.before, ReferenceRanks(reference, separators));
  EXPECT_EQ(ranks.batch, ReferenceRanks(sorted_batch, separators));
  reference.insert(reference.end(), batch.begin(), batch.end());
  std::sort(reference.begin(), reference.end());
  ExpectMatchesReference(sample, reference);
  return sample.view().is_window();
}

// Separators for validating the next batch: quantiles of R (none while it
// is empty), some repeated, beside keys one outside each end of R and the
// batch and at both ends of the domain.
std::vector<Value> SeparatorsFor(const std::vector<Value>& reference,
                                 const std::vector<Value>& batch, Rng& rng) {
  std::vector<Value> separators = {kMin, kMin, kMax, kMax};
  for (const std::vector<Value>* keys : {&reference, &batch}) {
    if (keys->empty()) continue;
    const auto [lo, hi] = std::minmax_element(keys->begin(), keys->end());
    if (*lo != kMin) separators.push_back(*lo - 1);
    if (*hi != kMax) separators.push_back(*hi + 1);
  }
  for (std::size_t q = 1; q < 8 && !reference.empty(); ++q) {
    const Value x = reference[q * (reference.size() - 1) / 8];
    separators.insert(separators.end(), 1 + rng.NextBounded(3), x);
  }
  std::sort(separators.begin(), separators.end());
  return separators;
}

// `count` keys drawn uniformly from [lo, lo + span).
std::vector<Value> UniformKeys(std::size_t count, Value lo, Value span,
                               Rng& rng) {
  std::vector<Value> keys(count);
  for (Value& x : keys) x = lo + rng.NextInRange(0, span - 1);
  return keys;
}

// R enters the window once its range with the batch is below four keys per
// tuple, stays while batches widen it within the rule, and leaves for runs
// when a late batch brings INT64_MAX.
TEST(SampleStageTest, WindowEntersStaysAndLeaves) {
  Rng rng(3);
  Rng separator_rng(4);
  Sample sample;
  std::vector<Value> reference;
  auto add = [&](const std::vector<Value>& batch) {
    return AddAndCheck(sample, reference, batch, nullptr,
                          SeparatorsFor(reference, batch, separator_rng));
  };
  // Range ~200 >= 4 * 30 tuples: runs.
  EXPECT_FALSE(add(UniformKeys(30, 0, 200, rng)));
  // Range ~200 < 4 * 330: R is scattered into a window.
  EXPECT_TRUE(add(UniformKeys(300, 0, 200, rng)));
  // The window grows to 300 keys, still below 4 * 630 tuples, then widens
  // at its lower end.
  EXPECT_TRUE(add(UniformKeys(300, 100, 200, rng)));
  EXPECT_TRUE(add(UniformKeys(100, -50, 100, rng)));
  // INT64_MAX: back to runs, and it stays there.
  std::vector<Value> late = UniformKeys(100, 0, 200, rng);
  late[37] = kMax;
  EXPECT_FALSE(add(late));
  EXPECT_FALSE(add(UniformKeys(2000, 0, 200, rng)));
}

// Windows at either end of the domain count keys exactly, with the extreme
// keys present and absent.
TEST(SampleStageTest, WindowsAtTheEndsOfTheDomain) {
  for (const Value lo : {kMin, kMax - 40}) {
    SCOPED_TRACE(testing::Message() << "lo " << lo);
    Rng rng(5);
    Sample sample;
    std::vector<Value> reference;
    Rng separator_rng(6);
    std::vector<Value> first = UniformKeys(100, lo, 30, rng);
    EXPECT_TRUE(AddAndCheck(sample, reference, first, nullptr));
    std::vector<Value> second = UniformKeys(100, lo, 41, rng);
    second[0] = lo;
    second[1] = lo + 40;
    EXPECT_TRUE(AddAndCheck(sample, reference, second, nullptr,
                               SeparatorsFor(reference, second,
                                             separator_rng)));
  }
}

// Below 2^18 keys, R and the batch are a key window exactly while
// range(R ∪ batch) < 4 · (|R| + |batch|): each step below sits on one side
// of that boundary.
TEST(SampleStageTest, WindowWhileTheRangeIsBelowFourSlotsPerTuple) {
  static_assert(Sample::kWindowSlotsPerTuple == 4);
  Sample sample;
  std::vector<Value> reference;
  // Range 39 < 4 * 10.
  EXPECT_TRUE(AddAndCheck(sample, reference,
                             {39, 0, 1, 2, 3, 4, 5, 6, 7, 8}, nullptr));
  // Range 48 = 4 * 12: back to runs.
  EXPECT_FALSE(AddAndCheck(sample, reference, {48, 48}, nullptr));
  // Range 48 < 4 * 13.
  EXPECT_TRUE(AddAndCheck(sample, reference, {0}, nullptr));
  // Range 51 < 4 * 14, the window widening to the batch's key.
  EXPECT_TRUE(AddAndCheck(sample, reference, {51}, nullptr));
  // Range 60 = 4 * 15.
  EXPECT_FALSE(AddAndCheck(sample, reference, {60}, nullptr));
  Sample fresh;
  std::vector<Value> fresh_reference;
  // Range 40 = 4 * 10.
  EXPECT_FALSE(AddAndCheck(fresh, fresh_reference,
                              {40, 0, 1, 2, 3, 4, 5, 6, 7, 8}, nullptr));
}

// From 2^18 keys on, a window needs more tuples than keys; below that it
// may hold four keys per tuple. Each fresh sample stages one batch holding
// both ends of its range.
TEST(SampleStageTest, WindowsOfTwoToTheEighteenKeysNeedATuplePerKey) {
  static_assert(Sample::kSparseWindowSlots == std::uint64_t{1} << 18);
  constexpr Value kCap = Value{1} << 18;
  Rng rng(9);
  auto stage = [&](std::size_t count, Value range) {
    std::vector<Value> keys = UniformKeys(count, 0, range + 1, rng);
    keys[0] = 0;
    keys[1] = range;
    Sample sample;
    std::vector<Value> reference;
    return AddAndCheck(sample, reference, keys, nullptr);
  };
  // Range 2^18 - 1 < 4 * 65,536, below the cap.
  EXPECT_TRUE(stage(65536, kCap - 1));
  // Range 2^18 < 4 * 65,537, but at the cap and not below the count.
  EXPECT_FALSE(stage(65537, kCap));
  // Range 2^18 < 2^18 + 1 tuples, and not below 2^18.
  EXPECT_TRUE(stage(kCap + 1, kCap));
  EXPECT_FALSE(stage(kCap, kCap));
}

TEST(SampleStageTest, EmptyStageIsANoop) {
  Sample sample;
  std::vector<Value> reference;
  AddAndCheck(sample, reference, {4, 4, 5}, nullptr);
  const std::vector<Value> separators = {3, 4, 4, 9};
  Sample::BatchRanks ranks;
  sample.Add({}, separators, ranks, nullptr);
  EXPECT_EQ(ranks.batch_size, 0u);
  EXPECT_EQ(ranks.batch, (std::vector<std::uint64_t>{0, 0, 0, 0}));
  EXPECT_EQ(ranks.before_size, 3u);
  EXPECT_EQ(ranks.before, (std::vector<std::uint64_t>{0, 0, 2, 3}));
  ExpectMatchesReference(sample, reference);
}

// Property: staging random page batches in random order, with and without
// a pool, keeps Sample equal to a plain sorted multiset through every
// change of form. Narrow batches (shapes 0-2 and 5) enter and grow the
// window; a wide one (shape 3, 4 or 6) in the second half sends R back to
// runs. Across the seeds the pages store offsets of all four widths.
TEST(SamplePropertyTest, StagedPagesMatchSortedMultisetReference) {
  const auto zipf_frequencies =
      MakeZipf({.n = 20000, .domain_size = 2000, .skew = 1.0});
  ASSERT_TRUE(zipf_frequencies.ok());
  const ValueSet zipf = ValueSet::FromFrequencies(*zipf_frequencies);
  const std::size_t sizes[] = {1, 300, 2500, 6000};
  const int wide_shapes[] = {6, 3, 4};
  ThreadPool pool(4);
  std::set<std::uint32_t> widths;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<std::vector<Value>> batches;
    for (const int shape : {0, 1, 2, 5}) {
      for (const std::size_t size : sizes) {
        batches.push_back(MakeBatch(shape, size, rng, zipf));
      }
    }
    for (std::size_t i = batches.size(); i > 1; --i) {
      std::swap(batches[i - 1], batches[rng.NextBounded(i)]);
    }
    const std::size_t late =
        batches.size() / 2 + rng.NextBounded(batches.size() / 2);
    batches.insert(batches.begin() + static_cast<std::ptrdiff_t>(late),
                   MakeBatch(wide_shapes[seed % 3], 300, rng, zipf));
    for (const std::vector<Value>& batch : batches) {
      for (const Page& page : MakePages(batch, 64)) {
        widths.insert(page.offset_width());
      }
    }
    Sample serial;
    Sample parallel;
    std::vector<Value> reference;
    std::vector<Value> parallel_reference;
    std::vector<bool> forms;
    Rng separator_rng(seed + 100);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " batch " << b
                                      << " size " << batches[b].size());
      const std::vector<Value> separators =
          SeparatorsFor(reference, batches[b], separator_rng);
      forms.push_back(AddAndCheck(serial, reference, batches[b], nullptr,
                                     separators));
      EXPECT_EQ(AddAndCheck(parallel, parallel_reference, batches[b],
                               &pool, separators),
                forms.back());
    }
    EXPECT_NE(std::find(forms.begin(), forms.begin() + late, true),
              forms.begin() + static_cast<std::ptrdiff_t>(late));
    EXPECT_EQ(std::find(forms.begin() + late, forms.end(), true), forms.end());
  }
  EXPECT_EQ(widths, (std::set<std::uint32_t>{1, 2, 4, 8}));
}

// The window's one fold pass against the three passes it replaced: the
// batch's counts zero-filled, counted and turned cumulative, then added to
// R's window. Windows mid-domain and at both ends of it, with empty edge
// slots, and separators inside the window, repeated, outside it on both
// sides and at both ends of the domain.
TEST(FoldCountsTest, MatchesPrefixSumAndAdd) {
  Rng rng(17);
  struct Case {
    Value base;
    std::uint64_t slots;
  };
  const Case cases[] = {
      {-40, 1}, {-40, 97}, {kMin, 50}, {kMax - 49, 50}, {1000, 5000}};
  for (const Case& c : cases) {
    const auto key = [&](std::uint64_t slot) {
      return static_cast<Value>(static_cast<std::uint64_t>(c.base) + slot);
    };
    const Value last = key(c.slots - 1);
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE(testing::Message()
                   << "base " << c.base << " trial " << trial);
      std::vector<std::uint64_t> counts(c.slots);
      std::vector<std::uint64_t> per_slot(c.slots);
      for (std::uint64_t i = 0; i < c.slots; ++i) {
        counts[i] = rng.NextBounded(3) == 0 ? 0 : rng.NextBounded(5);
        per_slot[i] = rng.NextBounded(2) == 0 ? 0 : rng.NextBounded(4);
      }
      if (trial % 2 == 0) {
        counts.front() = 0;
        counts.back() = 0;
        per_slot.front() = 0;
      }
      std::vector<std::uint64_t> window = per_slot;
      std::partial_sum(window.begin(), window.end(), window.begin());
      std::vector<Value> separators = {kMin, kMax};
      for (int q = 0; q < 12; ++q) {
        Value x = key(rng.NextBounded(c.slots));
        if (q % 4 == 1 && c.base != kMin) x = c.base - 1;
        if (q % 4 == 2 && last != kMax) x = last + 1;
        separators.insert(separators.end(), 1 + rng.NextBounded(3), x);
      }
      std::sort(separators.begin(), separators.end());

      // Today's passes: cumulative batch counts, then R += batch.
      std::vector<std::uint64_t> fresh = counts;
      std::partial_sum(fresh.begin(), fresh.end(), fresh.begin());
      std::vector<std::uint64_t> expected = window;
      for (std::uint64_t i = 0; i < c.slots; ++i) expected[i] += fresh[i];
      const std::vector<Value> batch_elements =
          Elements(SortedView::Window(c.base, fresh));
      const std::vector<Value> before_elements =
          Elements(SortedView::Window(c.base, window));

      std::vector<std::uint64_t> batch_ranks(separators.size());
      std::vector<std::uint64_t> before_ranks(separators.size());
      sample_internal::FoldCounts(c.base, counts, window, separators,
                                  batch_ranks, before_ranks);
      EXPECT_EQ(window, expected);
      EXPECT_EQ(counts, std::vector<std::uint64_t>(c.slots, 0));
      EXPECT_EQ(batch_ranks, ReferenceRanks(batch_elements, separators));
      EXPECT_EQ(before_ranks, ReferenceRanks(before_elements, separators));
    }
  }
}

// The claimed-count deviation as CVB computed it from a sorted view of the
// validation sample.
double ClaimedDeviationOfView(const Histogram& histogram,
                              SortedView validation) {
  const std::vector<std::uint64_t> counts =
      histogram.PartitionSorted(validation);
  const double scale = static_cast<double>(validation.size()) /
                       static_cast<double>(histogram.total());
  const double ideal = static_cast<double>(validation.size()) /
                       static_cast<double>(histogram.bucket_count());
  double worst = 0.0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    const double expected = static_cast<double>(histogram.counts()[j]) * scale;
    worst =
        std::max(worst, std::abs(static_cast<double>(counts[j]) - expected));
  }
  return ideal > 0.0 ? worst / ideal : 0.0;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Every validation metric reads the same bits from the ranks Add records
// as from the sorted views of R and of the batch that staging gave, for
// both validation styles: all of the batch's tuples, and one random tuple
// per page. H_{i-1} is built from R as CVB builds it, at k = 8, so a heavy
// key repeats separators. The batches enter the window, widen it at both
// ends, leave it for runs with INT64_MAX, and stay in runs.
TEST(SampleStageTest, ValidationFromRanksMatchesSortedViews) {
  Rng rng(31);
  std::vector<std::vector<Value>> batches = {
      UniformKeys(40, 0, 400, rng),   UniformKeys(300, 0, 200, rng),
      UniformKeys(600, 0, 200, rng),  UniformKeys(300, -60, 100, rng),
      UniformKeys(300, 150, 120, rng), UniformKeys(400, 0, 300, rng),
      UniformKeys(200, 0, 300, rng),  UniformKeys(500, 0, 300, rng)};
  // A heavy key: over a bucket's share, so its separators repeat.
  std::fill(batches[2].begin(), batches[2].begin() + 300, 77);
  batches[6][11] = kMax;
  Sample sample;
  std::vector<Value> reference;
  std::set<bool> forms;
  bool repeated_separators = false;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "batch " << b);
    const std::vector<Page> pages = MakePages(batches[b], 64);
    std::vector<Value> sorted_batch = batches[b];
    std::sort(sorted_batch.begin(), sorted_batch.end());
    Sample::BatchRanks ranks;
    if (reference.empty()) {
      sample.Add(ViewsOf(pages), {}, ranks, nullptr);
    } else {
      const Histogram histogram =
          BuildHistogramFromSample(SortedView(reference), 8,
                                   10 * reference.size())
              .value();
      const std::vector<Value>& separators = histogram.separators();
      repeated_separators |=
          std::adjacent_find(separators.begin(), separators.end()) !=
          separators.end();
      std::vector<Value> picks;
      for (const Page& page : pages) {
        picks.push_back(
            page.at(static_cast<std::uint32_t>(rng.NextBounded(page.size()))));
      }
      std::sort(picks.begin(), picks.end());
      sample.Add(ViewsOf(pages), separators, ranks, nullptr);
      const std::vector<std::uint64_t> pick_ranks =
          ReferenceRanks(picks, separators);
      const SeparatorRanks before(ranks.before, ranks.before_size);
      const SeparatorRanks styles[] = {
          SeparatorRanks(ranks.batch, ranks.batch_size),
          SeparatorRanks(pick_ranks, picks.size())};
      const SortedView views[] = {SortedView(sorted_batch),
                                  SortedView(picks)};
      for (int style = 0; style < 2; ++style) {
        SCOPED_TRACE(testing::Message() << "style " << style);
        EXPECT_EQ(Bits(FractionalMaxError(histogram, before, styles[style])),
                  Bits(FractionalMaxError(histogram, SortedView(reference),
                                          views[style])));
        EXPECT_EQ(Bits(RelativeDeviation(histogram, styles[style])),
                  Bits(RelativeDeviation(histogram, views[style])));
        EXPECT_EQ(Bits(ClaimedDeviation(histogram, styles[style])),
                  Bits(ClaimedDeviationOfView(histogram, views[style])));
      }
    }
    reference.insert(reference.end(), batches[b].begin(), batches[b].end());
    std::sort(reference.begin(), reference.end());
    ExpectMatchesReference(sample, reference);
    forms.insert(sample.view().is_window());
  }
  EXPECT_EQ(forms, (std::set<bool>{false, true}));
  EXPECT_TRUE(repeated_separators);
}

}  // namespace
}  // namespace equihist
