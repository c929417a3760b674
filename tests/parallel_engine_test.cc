// Tests for the parallel histogram-construction engine: the thread pool,
// the parallel sort/merge primitives, and — the load-bearing property —
// bit-identical results at every thread count for a fixed seed.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cvb.h"
#include "data/distribution.h"
#include "distinct/frequency_profile.h"
#include "sampling/sample.h"
#include "stats/column_statistics.h"
#include "storage/scan.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};  // 128 tuples per page

Table MakeTable(std::uint64_t n, double skew = 1.0,
                LayoutKind layout = LayoutKind::kRandom,
                std::uint64_t seed = 7) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 20, .skew = skew, .seed = seed});
  return Table::Create(*freq, kPage, {.kind = layout, .seed = seed}).value();
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, SizeCountsTheCallingThread) {
  ThreadPool solo(1);
  EXPECT_EQ(solo.size(), 1u);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.size(), 1u);
}

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(4);
  auto a = pool.Submit([]() { return 41 + 1; });
  auto b = pool.Submit([]() { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPoolTest, SubmitRunsInlineOnSizeOnePool) {
  ThreadPool pool(1);
  bool ran = false;
  pool.Submit([&ran]() { ran = true; }).get();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(0, hits.size(), 64,
                   [&](std::size_t lo, std::size_t hi, std::size_t) {
                     for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                   });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForShardLayoutIndependentOfThreads) {
  // The (lo, hi, shard) triples must depend only on (range, num_shards).
  auto layout_with = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> shards(7);
    pool.ParallelFor(3, 1000, 7,
                     [&](std::size_t lo, std::size_t hi, std::size_t s) {
                       shards[s] = {lo, hi};
                     });
    return shards;
  };
  EXPECT_EQ(layout_with(1), layout_with(4));
  EXPECT_EQ(layout_with(2), layout_with(8));
}

TEST(ThreadPoolTest, ParallelForMoreShardsThanElements) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(0, hits.size(), 16,
                   [&](std::size_t lo, std::size_t hi, std::size_t) {
                     for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                   });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 8, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.ParallelFor(0, 16, 4,
                       [&](std::size_t l2, std::size_t h2, std::size_t) {
                         total.fetch_add(static_cast<int>(h2 - l2));
                       });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

// --- Parallel sort / merge -------------------------------------------------

std::vector<Value> RandomValues(std::size_t n, std::uint64_t seed,
                                std::uint64_t domain) {
  Rng rng(seed);
  std::vector<Value> v(n);
  for (auto& x : v) {
    x = static_cast<Value>(rng.NextBounded(domain)) - 500;
  }
  return v;
}

TEST(ParallelSortTest, MatchesStdSort) {
  using parallel_internal::kMinParallelElements;
  using parallel_internal::kRadixMinElements;
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  const std::size_t sizes[] = {0,
                               1,
                               100,
                               kRadixMinElements - 1,
                               kRadixMinElements,
                               kRadixMinElements + 1,
                               kMinParallelElements - 1,
                               kMinParallelElements,
                               kMinParallelElements + 1,
                               40000,
                               100001};
  for (const std::size_t n : sizes) {
    Rng rng(13 + n);
    std::vector<Value> full_width(n);
    for (Value& x : full_width) x = static_cast<Value>(rng.Next());
    // INT64_MIN beside INT64_MAX: max - min is 2^64 - 1, all eight passes.
    std::vector<Value> extremes = full_width;
    if (n >= 2) {
      extremes[0] = std::numeric_limits<Value>::max();
      extremes[n / 2] = std::numeric_limits<Value>::min();
    }
    std::vector<Value> negative = RandomValues(n, 17 + n, 1u << 20);
    for (Value& x : negative) x = -1 - std::abs(x);
    const std::vector<std::vector<Value>> inputs = {
        // Heavy duplication (domain 1000) exercises tie handling in the
        // merge-path splits.
        RandomValues(n, 11 + n, 1000),
        full_width,
        extremes,
        std::vector<Value>(n, -42),
        negative,
    };
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      std::vector<Value> expected = inputs[k];
      std::sort(expected.begin(), expected.end());
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                               &pool4}) {
        std::vector<Value> actual = inputs[k];
        ParallelSort(actual, pool);
        EXPECT_EQ(actual, expected)
            << "n=" << n << " input=" << k
            << " pool=" << (pool == nullptr ? 0 : pool->size());
        if (n == 0) continue;
        // The same sort with the bounds scanned by the caller.
        actual = inputs[k];
        ParallelSort(actual, ScanKeyBounds(actual.data(), n), pool);
        EXPECT_EQ(actual, expected) << "bounded n=" << n << " input=" << k;
      }
    }
  }
}

TEST(ParallelSortTest, NullPoolFallsBackToSequential) {
  std::vector<Value> v = RandomValues(50000, 3, 1u << 30);
  std::vector<Value> expected = v;
  std::sort(expected.begin(), expected.end());
  ParallelSort(v, nullptr);
  EXPECT_EQ(v, expected);
}

TEST(ParallelMergeTest, MatchesStdMerge) {
  ThreadPool pool(4);
  std::vector<Value> a = RandomValues(60000, 5, 200);
  std::vector<Value> b = RandomValues(35000, 6, 200);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<Value> expected(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
  std::vector<Value> actual(a.size() + b.size());
  ParallelMergeSorted(a.data(), a.size(), b.data(), b.size(), actual.data(),
                      &pool);
  EXPECT_EQ(actual, expected);
}

TEST(ParallelMergeTest, EmptySides) {
  ThreadPool pool(2);
  std::vector<Value> a = {1, 2, 3};
  std::vector<Value> out(3);
  ParallelMergeSorted(a.data(), a.size(), a.data(), 0, out.data(), &pool);
  EXPECT_EQ(out, a);
  ParallelMergeSorted(a.data(), 0, a.data(), a.size(), out.data(), &pool);
  EXPECT_EQ(out, a);
}

// --- Deterministic parallel sampling --------------------------------------

TEST(ParallelSamplingTest, ParallelFullScanMatchesSequential) {
  Table table = MakeTable(60000);
  ThreadPool pool(4);
  IoStats serial_io, parallel_io;
  const auto serial = FullScanChecked(table, &serial_io);
  const auto parallel = FullScanChecked(table, &parallel_io, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(*serial, *parallel);
  EXPECT_EQ(serial_io.pages_read, parallel_io.pages_read);
  EXPECT_EQ(serial_io.tuples_read, parallel_io.tuples_read);
}

TEST(ParallelSamplingTest, DeriveStreamSeedIsStable) {
  EXPECT_EQ(DeriveStreamSeed(1, 0), DeriveStreamSeed(1, 0));
  EXPECT_NE(DeriveStreamSeed(1, 0), DeriveStreamSeed(1, 1));
  EXPECT_NE(DeriveStreamSeed(1, 0), DeriveStreamSeed(2, 0));
}

// --- Sample with pool ------------------------------------------------------

// Whether two views hold the same multiset, whatever their forms.
bool SameMultiset(SortedView a, SortedView b) {
  std::vector<std::pair<Value, std::uint64_t>> da;
  std::vector<std::pair<Value, std::uint64_t>> db;
  a.ForEachDistinct([&](Value v, std::uint64_t m) { da.emplace_back(v, m); });
  b.ForEachDistinct([&](Value v, std::uint64_t m) { db.emplace_back(v, m); });
  return da == db;
}

// Narrow keys are counted and wide keys sorted (in pool-sized runs with a
// pool); either way the runs match the sequential build.
TEST(ParallelSampleTest, PoolSortAndMergeMatchSequential) {
  ThreadPool pool(4);
  for (const std::uint64_t domain : {3000ull, 1ull << 40}) {
    const std::vector<Value> init = RandomValues(50000, 21, domain);
    const std::vector<Value> batch = RandomValues(30000, 22, domain);
    Sample serial(init);
    Sample parallel(init, &pool);
    EXPECT_TRUE(SameMultiset(serial.view(), parallel.view()));
    std::vector<Value> serial_batch = batch;
    std::vector<Value> parallel_batch = batch;
    Runs serial_counted;
    Runs parallel_counted;
    serial.Merge(SortOrCount(serial_batch, serial_counted, nullptr));
    parallel.Merge(SortOrCount(parallel_batch, parallel_counted, &pool));
    EXPECT_TRUE(SameMultiset(serial.view(), parallel.view()));
    EXPECT_EQ(serial.size(), 80000u);
  }
}

// --- End-to-end determinism ------------------------------------------------

// The acceptance property of the parallel engine: same seed => bit-identical
// histogram (separators, counts, fences), sample statistics and sampling
// trajectory at 1, 2, 4 and 8 threads.
TEST(ParallelCvbTest, BitIdenticalAcrossThreadCounts) {
  for (const LayoutKind layout : {LayoutKind::kRandom, LayoutKind::kSorted}) {
    Table table = MakeTable(150000, 1.0, layout);
    CvbOptions options;
    options.k = 64;
    options.f = 0.2;
    options.seed = 99;
    options.threads = 1;
    const auto baseline = RunCvb(table, options);
    ASSERT_TRUE(baseline.ok());
    for (const std::uint64_t threads : {2ull, 4ull, 8ull}) {
      options.threads = threads;
      const auto result = RunCvb(table, options);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->histogram.separators(),
                baseline->histogram.separators())
          << "threads=" << threads;
      EXPECT_EQ(result->histogram.counts(), baseline->histogram.counts());
      EXPECT_EQ(result->histogram.lower_fence(),
                baseline->histogram.lower_fence());
      EXPECT_EQ(result->histogram.upper_fence(),
                baseline->histogram.upper_fence());
      EXPECT_EQ(result->tuples_sampled, baseline->tuples_sampled);
      EXPECT_EQ(result->blocks_sampled, baseline->blocks_sampled);
      EXPECT_EQ(result->iterations, baseline->iterations);
      EXPECT_EQ(result->sample_distinct, baseline->sample_distinct);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result->density_estimate),
                std::bit_cast<std::uint64_t>(baseline->density_estimate));
      EXPECT_EQ(result->sample_singletons, baseline->sample_singletons);
      EXPECT_TRUE(std::ranges::equal(
          FrequencyProfile::FromSorted(result->sample.view()).dense(),
          FrequencyProfile::FromSorted(baseline->sample.view()).dense()));
      EXPECT_EQ(result->heavy_hitters, baseline->heavy_hitters);
      EXPECT_EQ(result->io.pages_read, baseline->io.pages_read);
      EXPECT_EQ(result->io.tuples_read, baseline->io.tuples_read);
      ASSERT_EQ(result->log.size(), baseline->log.size());
      for (std::size_t i = 0; i < result->log.size(); ++i) {
        EXPECT_EQ(result->log[i].fresh_blocks, baseline->log[i].fresh_blocks);
        EXPECT_EQ(result->log[i].fresh_tuples, baseline->log[i].fresh_tuples);
        EXPECT_EQ(result->log[i].accumulated_tuples,
                  baseline->log[i].accumulated_tuples);
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(result->log[i].validation_error),
            std::bit_cast<std::uint64_t>(baseline->log[i].validation_error));
      }
    }
  }
}

TEST(ParallelCvbTest, OneTuplePerBlockAlsoDeterministic) {
  Table table = MakeTable(100000);
  CvbOptions options;
  options.k = 50;
  options.f = 0.25;
  options.style = CvbValidationStyle::kOneTuplePerBlock;
  options.threads = 1;
  const auto a = RunCvb(table, options);
  options.threads = 4;
  const auto b = RunCvb(table, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->histogram.separators(), b->histogram.separators());
  EXPECT_EQ(a->histogram.counts(), b->histogram.counts());
  EXPECT_EQ(a->tuples_sampled, b->tuples_sampled);
}

TEST(ParallelCvbTest, ExternalPoolMatchesOwnedPool) {
  Table table = MakeTable(80000);
  CvbOptions options;
  options.k = 40;
  options.f = 0.25;
  options.threads = 3;
  const auto owned = RunCvb(table, options);
  ThreadPool pool(3);
  const auto external = RunCvb(table, options, &pool);
  ASSERT_TRUE(owned.ok());
  ASSERT_TRUE(external.ok());
  EXPECT_EQ(owned->histogram.separators(), external->histogram.separators());
  EXPECT_EQ(owned->histogram.counts(), external->histogram.counts());
}

TEST(ParallelStatsBuildTest, FullScanBuildIdenticalAcrossThreadCounts) {
  Table table = MakeTable(120000, 1.5);
  const auto serial = BuildStatisticsFullScan(table, 64);
  ASSERT_TRUE(serial.ok());
  for (const std::size_t threads : {2ul, 8ul}) {
    ThreadPool pool(threads);
    const auto parallel = BuildStatisticsFullScan(table, 64, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->histogram().separators(),
              serial->histogram().separators());
    EXPECT_EQ(parallel->histogram().counts(), serial->histogram().counts());
    EXPECT_EQ(parallel->row_count, serial->row_count);
    EXPECT_DOUBLE_EQ(parallel->distinct_estimate, serial->distinct_estimate);
    EXPECT_EQ(parallel->build_cost.pages_read, serial->build_cost.pages_read);
  }
}

}  // namespace
}  // namespace equihist
