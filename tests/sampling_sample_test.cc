#include "sampling/sample.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "common/thread_pool.h"
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

// Stages and commits `batch` as pages, checking the staged view, the
// sample before the commit and the sample after it against plain sorted
// multisets. Returns whether the batch was staged in a key window.
bool StageAndCommit(Sample& sample, std::vector<Value>& reference,
                    const std::vector<Value>& batch, ThreadPool* pool) {
  const std::vector<Page> pages = MakePages(batch, 64);
  std::vector<Value> sorted_batch = batch;
  std::sort(sorted_batch.begin(), sorted_batch.end());
  const SortedView staged = sample.Stage(ViewsOf(pages), pool);
  const bool window = staged.is_window();
  ExpectMatchesReference(staged, sorted_batch);
  ExpectMatchesReference(sample, reference);  // unchanged until Commit
  EXPECT_EQ(sample.view().is_window(), window);
  sample.Commit();
  reference.insert(reference.end(), batch.begin(), batch.end());
  std::sort(reference.begin(), reference.end());
  ExpectMatchesReference(sample, reference);
  return window;
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
  Sample sample;
  std::vector<Value> reference;
  // Range ~200 >= 4 * 30 tuples: runs.
  EXPECT_FALSE(
      StageAndCommit(sample, reference, UniformKeys(30, 0, 200, rng), nullptr));
  // Range ~200 < 4 * 330: R is scattered into a window.
  EXPECT_TRUE(StageAndCommit(sample, reference, UniformKeys(300, 0, 200, rng),
                             nullptr));
  // The window grows to 300 keys, still below 4 * 630 tuples.
  EXPECT_TRUE(StageAndCommit(sample, reference,
                             UniformKeys(300, 100, 200, rng), nullptr));
  EXPECT_TRUE(StageAndCommit(sample, reference,
                             UniformKeys(100, -50, 100, rng), nullptr));
  // INT64_MAX: back to runs, and it stays there.
  std::vector<Value> late = UniformKeys(100, 0, 200, rng);
  late[37] = kMax;
  EXPECT_FALSE(StageAndCommit(sample, reference, late, nullptr));
  EXPECT_FALSE(StageAndCommit(sample, reference,
                              UniformKeys(2000, 0, 200, rng), nullptr));
}

// Windows at either end of the domain count keys exactly, with the extreme
// keys present and absent.
TEST(SampleStageTest, WindowsAtTheEndsOfTheDomain) {
  for (const Value lo : {kMin, kMax - 40}) {
    SCOPED_TRACE(testing::Message() << "lo " << lo);
    Rng rng(5);
    Sample sample;
    std::vector<Value> reference;
    std::vector<Value> first = UniformKeys(100, lo, 30, rng);
    EXPECT_TRUE(StageAndCommit(sample, reference, first, nullptr));
    std::vector<Value> second = UniformKeys(100, lo, 41, rng);
    second[0] = lo;
    second[1] = lo + 40;
    EXPECT_TRUE(StageAndCommit(sample, reference, second, nullptr));
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
  EXPECT_TRUE(StageAndCommit(sample, reference,
                             {39, 0, 1, 2, 3, 4, 5, 6, 7, 8}, nullptr));
  // Range 48 = 4 * 12: back to runs.
  EXPECT_FALSE(StageAndCommit(sample, reference, {48, 48}, nullptr));
  // Range 48 < 4 * 13.
  EXPECT_TRUE(StageAndCommit(sample, reference, {0}, nullptr));
  // Range 51 < 4 * 14, the window widening to the batch's key.
  EXPECT_TRUE(StageAndCommit(sample, reference, {51}, nullptr));
  // Range 60 = 4 * 15.
  EXPECT_FALSE(StageAndCommit(sample, reference, {60}, nullptr));
  Sample fresh;
  std::vector<Value> fresh_reference;
  // Range 40 = 4 * 10.
  EXPECT_FALSE(StageAndCommit(fresh, fresh_reference,
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
    return StageAndCommit(sample, reference, keys, nullptr);
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
  StageAndCommit(sample, reference, {4, 4, 5}, nullptr);
  EXPECT_TRUE(sample.Stage({}, nullptr).empty());
  sample.Commit();
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
    for (std::size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " batch " << b
                                      << " size " << batches[b].size());
      forms.push_back(StageAndCommit(serial, reference, batches[b], nullptr));
      EXPECT_EQ(StageAndCommit(parallel, parallel_reference, batches[b],
                               &pool),
                forms.back());
    }
    EXPECT_NE(std::find(forms.begin(), forms.begin() + late, true),
              forms.begin() + static_cast<std::ptrdiff_t>(late));
    EXPECT_EQ(std::find(forms.begin() + late, forms.end(), true), forms.end());
  }
  EXPECT_EQ(widths, (std::set<std::uint32_t>{1, 2, 4, 8}));
}

}  // namespace
}  // namespace equihist
