// PERF: google-benchmark microbenchmarks for the library's hot paths —
// construction throughput numbers a user evaluating this library would ask
// for. Not a paper figure; complements the experiment harnesses.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/parallel_sort.h"
#include "stats/fleet_wire.h"
#include "stats/statistics_fleet.h"

namespace {

using namespace equihist;

const FrequencyVector& SharedFrequencies() {
  static const FrequencyVector* fv = [] {
    auto result = MakeZipf({.n = 1000000, .domain_size = 10000, .skew = 1.0});
    return new FrequencyVector(std::move(*result));
  }();
  return *fv;
}

const ValueSet& SharedValueSet() {
  static const ValueSet* set =
      new ValueSet(ValueSet::FromFrequencies(SharedFrequencies()));
  return *set;
}

const Table& SharedTable() {
  static const Table* table = [] {
    auto result = Table::Create(SharedFrequencies(), PageConfig{8192, 64},
                                {.kind = LayoutKind::kRandom});
    return new Table(std::move(*result));
  }();
  return *table;
}

void BM_ZipfGeneration(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto fv = MakeZipf({.n = n, .domain_size = n / 100, .skew = 2.0});
    benchmark::DoNotOptimize(fv);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ZipfGeneration)->Arg(100000)->Arg(1000000);

void BM_RowSampleWithReplacement(benchmark::State& state) {
  const auto r = static_cast<std::uint64_t>(state.range(0));
  const auto& values = SharedValueSet().sorted_values();
  Rng rng(1);
  for (auto _ : state) {
    auto sample = SampleRowsWithReplacement(values, r, rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(r));
}
BENCHMARK(BM_RowSampleWithReplacement)->Arg(10000)->Arg(100000);

void BM_BlockSample(benchmark::State& state) {
  const auto blocks = static_cast<std::uint64_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    auto sample =
        SampleBlocksWithoutReplacement(SharedTable(), blocks, rng, nullptr);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks) *
                          SharedTable().tuples_per_page());
}
BENCHMARK(BM_BlockSample)->Arg(100)->Arg(1000);

void BM_BuildHistogramFromSample(benchmark::State& state) {
  const auto r = static_cast<std::uint64_t>(state.range(0));
  Rng rng(3);
  auto sample = SampleRowsWithReplacement(SharedValueSet().sorted_values(),
                                          r, rng);
  std::sort(sample.begin(), sample.end());
  for (auto _ : state) {
    auto histogram = BuildHistogramFromSample(sample, 600, 1000000);
    benchmark::DoNotOptimize(histogram);
  }
}
BENCHMARK(BM_BuildHistogramFromSample)->Arg(10000)->Arg(100000);

void BM_BuildPerfectHistogram(benchmark::State& state) {
  for (auto _ : state) {
    auto histogram = BuildPerfectHistogram(SharedValueSet(), 600);
    benchmark::DoNotOptimize(histogram);
  }
}
BENCHMARK(BM_BuildPerfectHistogram);

void BM_PartitionCounts(benchmark::State& state) {
  const auto histogram = BuildPerfectHistogram(SharedValueSet(), 600);
  for (auto _ : state) {
    auto counts = histogram->PartitionCounts(SharedValueSet());
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_PartitionCounts);

void BM_RangeEstimate(benchmark::State& state) {
  const auto histogram = BuildPerfectHistogram(SharedValueSet(), 600);
  ValueSet data = ValueSet::FromFrequencies(SharedFrequencies());
  RangeWorkloadGenerator gen(&data, 5);
  const auto queries = gen.UniformRanges(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateRangeCount(*histogram, queries[i++ & 1023]));
  }
}
BENCHMARK(BM_RangeEstimate);

// Merging a 100K-tuple batch into a 100K-tuple sample of the shared Zipf
// column (10K values), as CVB's runs merge does. Argument: the batch's
// view (0 = counted runs, 1 = the sorted batch as runs of one). Each
// iteration also copies the sample's runs, the same cost for both.
void BM_SampleMerge(benchmark::State& state) {
  Rng rng(6);
  const Sample base(SampleRowsWithReplacement(
      SharedValueSet().sorted_values(), 100000, rng));
  auto batch = SampleRowsWithReplacement(SharedValueSet().sorted_values(),
                                         100000, rng);
  Runs counted;
  SortedView view;
  if (state.range(0) == 0) {
    view = SortOrCount(batch, counted);
  } else {
    std::sort(batch.begin(), batch.end());
    view = batch;
  }
  for (auto _ : state) {
    Sample sample = base;
    sample.Merge(view);
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_SampleMerge)->ArgNames({"sorted"})->Arg(0)->Arg(1);

// Turning one unsorted batch of n keys into a sorted view, keys uniform
// over range + 1 values with range = n * ratio / 100. Arguments: path
// (0 = count, 1 = sort with the scanned bounds, 2 = SortOrCount, which
// counts when range < n and sorts otherwise, 3 = count the batch's pages
// in place into a key window, its bounds folded over the pages' bounds,
// and fold the counts into a cumulative window, as Sample::Add does),
// ratio (percent) and n. Where path 0 stops beating path 1 sets
// SortOrCount's cutoff. The ratios run past Sample::kWindowSlotsPerTuple
// (400%), the window's cutoff, which whole builds set, since a window also
// costs the later passes over it (DESIGN.md §8). Paths 0-2 also copy the
// unsorted keys in every iteration, as a batch read out of its pages;
// path 3 reads the pages of a table of 128-tuple pages, in a shuffled
// order as a block sample does. Those pages store offsets as wide as
// their key ranges need: 2 bytes up to range 65,535 and 4 above
// (BM_PageWidth times each width alone).
void BM_BatchToView(benchmark::State& state) {
  const std::int64_t path = state.range(0);
  const auto n = static_cast<std::uint64_t>(state.range(2));
  const std::uint64_t range =
      n * static_cast<std::uint64_t>(state.range(1)) / 100;
  Rng rng(11);
  std::vector<Value> keys(n);
  for (Value& key : keys) key = static_cast<Value>(rng.NextBounded(range + 1));
  const Table table =
      Table::CreateFromValues(keys, PageConfig{8192, 64}).value();
  std::vector<const Page*> pages;
  for (std::uint64_t id = 0; id < table.page_count(); ++id) {
    pages.push_back(&table.file().page(id));
  }
  for (std::size_t i = pages.size(); i > 1; --i) {
    std::swap(pages[i - 1], pages[rng.NextBounded(i)]);
  }
  std::vector<Value> data;
  Runs counted;
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> window;
  for (auto _ : state) {
    if (path == 3) {
      KeyBounds bounds{.min = pages[0]->min_key(), .max = pages[0]->max_key()};
      for (const Page* page : pages) {
        bounds.min = std::min(bounds.min, page->min_key());
        bounds.max = std::max(bounds.max, page->max_key());
      }
      counts.resize(bounds.range() + 1);
      window.resize(bounds.range() + 1);
      sample_internal::CountPages(pages, bounds.min, counts);
      sample_internal::FoldCounts(bounds.min, counts, window, {}, {}, {});
      benchmark::DoNotOptimize(window.data());
      benchmark::ClobberMemory();
      continue;
    }
    data = keys;
    if (path == 0) {
      sample_internal::CountRuns(data, ScanKeyBounds(data.data(), n),
                                 counted);
    } else if (path == 1) {
      ParallelSort(data, ScanKeyBounds(data.data(), n), nullptr);
    } else {
      benchmark::DoNotOptimize(SortOrCount(data, counted));
    }
    benchmark::DoNotOptimize(data.data());
    benchmark::DoNotOptimize(counted.values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchToView)
    ->ArgNames({"path", "ratio", "n"})
    ->ArgsProduct({{0, 1, 2, 3},
                   {10, 50, 100, 200, 400, 800},
                   {1 << 13, 1 << 15, 1 << 17}});

// The page kernels at each offset width, at equal tuple counts: 8,192
// pages of 128 keys, read in a shuffled order as a block sample reads
// them. Arguments: kernel (0 = count the pages into one key window's
// per-slot counters, as Sample::Add does before its fold; 1 = decode them
// into one batch, as the runs path and the copying samplers do) and width
// (bytes per stored offset). Each
// page holds both ends of the narrowest key range its width stores (255
// keys for 1 byte, 65,535 for 2, 65,536 for 4 and 2^32 for 8), and the
// count rows share one window of 65,537 keys. An 8-byte page spans more
// keys than any window holds, so it is only decoded.
void BM_PageWidth(benchmark::State& state) {
  const std::int64_t kernel = state.range(0);
  const std::int64_t width = state.range(1);
  constexpr std::uint64_t kPages = 8192;
  constexpr std::uint64_t kTuplesPerPage = 128;
  constexpr std::uint64_t kWindow = 65537;
  const std::uint64_t range = width == 1   ? 255
                              : width == 2 ? 65535
                              : width == 4 ? 65536
                                           : std::uint64_t{1} << 32;
  Rng rng(12);
  std::vector<Value> keys;
  keys.reserve(kPages * kTuplesPerPage);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    const Value lo =
        width == 1 ? static_cast<Value>(rng.NextBounded(kWindow - range)) : 0;
    keys.push_back(lo);
    keys.push_back(lo + static_cast<Value>(range));
    for (std::uint64_t i = 2; i < kTuplesPerPage; ++i) {
      keys.push_back(lo + static_cast<Value>(rng.NextBounded(range + 1)));
    }
  }
  const Table table =
      Table::CreateFromValues(keys, PageConfig{8192, 64}).value();
  std::vector<const Page*> pages;
  for (std::uint64_t id = 0; id < table.page_count(); ++id) {
    pages.push_back(&table.file().page(id));
  }
  for (std::size_t i = pages.size(); i > 1; --i) {
    std::swap(pages[i - 1], pages[rng.NextBounded(i)]);
  }
  if (pages[0]->offset_width() != static_cast<std::uint32_t>(width)) {
    state.SkipWithError("pages do not have the requested width");
    return;
  }
  std::vector<std::uint64_t> window(kWindow);
  std::vector<Value> batch(keys.size());
  for (auto _ : state) {
    if (kernel == 0) {
      sample_internal::CountPages(pages, 0, window);
      benchmark::DoNotOptimize(window.data());
    } else {
      std::size_t first = 0;
      for (const Page* page : pages) {
        page->DecodeTo(std::span<Value>(batch).subspan(first));
        first += page->size();
      }
      benchmark::DoNotOptimize(batch.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_PageWidth)
    ->ArgNames({"kernel", "width"})
    ->ArgsProduct({{0}, {1, 2, 4}})
    ->ArgsProduct({{1}, {1, 2, 4, 8}});

// Sorting one sample batch on the calling thread (null pool), as CVB does
// for every fresh batch. Arguments: sorter (0 = std::sort, 1 = the radix
// sort with no size cutoff, 2 = ParallelSort, which runs std::sort below
// parallel_internal::kRadixMinElements and the radix sort from it on),
// keys (0 = Zipf over n/100 values, the shape of perfbench's columns;
// 1 = full-width random 64-bit keys, the radix sort's worst case) and n.
// Where sorter 1 overtakes sorter 0 sets the cutoff. Every iteration also
// copies the unsorted keys in, the same cost for each sorter.
void BM_ParallelSort(benchmark::State& state) {
  const std::int64_t sorter = state.range(0);
  const auto n = static_cast<std::uint64_t>(state.range(2));
  Rng rng(10);
  std::vector<Value> keys(n);
  if (state.range(1) == 0) {
    const auto zipf =
        MakeZipf({.n = n, .domain_size = std::max<std::uint64_t>(n / 100, 1)});
    const ValueSet column = ValueSet::FromFrequencies(*zipf);
    keys = SampleRowsWithReplacement(column.sorted_values(), n, rng);
  } else {
    for (Value& key : keys) key = static_cast<Value>(rng.Next());
  }
  std::vector<Value> data;
  std::vector<Value> scratch(n);
  for (auto _ : state) {
    data = keys;
    if (sorter == 0) {
      std::sort(data.begin(), data.end());
    } else if (sorter == 1) {
      parallel_internal::RadixSort(data.data(), data.size(), scratch.data(),
                                   ScanKeyBounds(data.data(), data.size()));
    } else {
      ParallelSort(data, nullptr);
    }
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelSort)
    ->ArgNames({"sorter", "keys", "n"})
    ->ArgsProduct({{0, 1, 2},
                   {0, 1},
                   {256, 512, 1024, 2048, 4096, 1 << 18, 1 << 21}});

void BM_FractionalError(benchmark::State& state) {
  Rng rng(7);
  auto sample = SampleRowsWithReplacement(SharedValueSet().sorted_values(),
                                          50000, rng);
  std::sort(sample.begin(), sample.end());
  const auto histogram = BuildHistogramFromSample(sample, 600, 1000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FractionalErrorVsPopulation(*histogram, SharedValueSet()));
  }
}
BENCHMARK(BM_FractionalError);

void BM_DistinctEstimators(benchmark::State& state) {
  Rng rng(8);
  auto sample = SampleRowsWithReplacement(SharedValueSet().sorted_values(),
                                          100000, rng);
  const auto profile = FrequencyProfile::FromUnsorted(std::move(sample));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaperEstimator(profile, 1000000));
    benchmark::DoNotOptimize(ChaoLeeEstimator(profile, 1000000));
    benchmark::DoNotOptimize(ShlosserEstimator(profile, 1000000));
  }
}
BENCHMARK(BM_DistinctEstimators);

// A 1M-row table of duplicate-free keys 1..n on a random layout.
const Table& DistinctTable() {
  static const Table* table = [] {
    auto frequencies = MakeAllDistinct(1000000);
    auto result = Table::Create(*frequencies, PageConfig{8192, 64},
                                {.kind = LayoutKind::kRandom});
    return new Table(std::move(*result));
  }();
  return *table;
}

// The shared Zipf column on the paper's partially clustered layout (a fifth
// of each value's duplicates contiguous), where CVB reads many more pages.
const Table& ClusteredTable() {
  static const Table* table = [] {
    auto result =
        Table::Create(SharedFrequencies(), PageConfig{8192, 64},
                      {.kind = LayoutKind::kPartiallyClustered,
                       .clustered_fraction = 0.2});
    return new Table(std::move(*result));
  }();
  return *table;
}

// A whole CVB build, k = 200, f = 0.2. Arguments: keys (0 = the shared
// Zipf column over n/100 values, 1 = duplicate-free keys), layout (0 =
// random, 1 = partially clustered; Zipf keys only), threads
// (CvbOptions::threads: 1 = this thread only, 0 = one per core) and seeds
// (0 = seed 9 in every iteration, which rereads the same pages while they
// are still in cache; 1 = a new seed per iteration, so each build reads
// other pages, as the builds of a running system do).
void BM_CvbEndToEnd(benchmark::State& state) {
  const Table& table = state.range(0) == 1   ? DistinctTable()
                       : state.range(1) == 1 ? ClusteredTable()
                                             : SharedTable();
  std::uint64_t seed = 9;
  for (auto _ : state) {
    CvbOptions options;
    options.k = 200;
    options.f = 0.2;
    options.seed = seed;
    options.threads = static_cast<std::uint64_t>(state.range(2));
    auto result = RunCvb(table, options);
    benchmark::DoNotOptimize(result);
    if (state.range(3) == 1) ++seed;
  }
}
BENCHMARK(BM_CvbEndToEnd)
    ->ArgNames({"keys", "layout", "threads", "seeds"})
    ->ArgsProduct({{0}, {0, 1}, {1, 0}, {0, 1}})
    ->ArgsProduct({{1}, {0}, {1, 0}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

Table MakeRebuildTable(LayoutKind layout) {
  auto frequencies =
      MakeZipf({.n = 2000000, .domain_size = 20000, .skew = 1.0});
  return Table::Create(*frequencies, PageConfig{8192, 64},
                       {.kind = layout, .clustered_fraction = 0.2})
      .value();
}

// perfbench's `rebuild` columns: 2M rows of Zipf(1) over 20,000 values,
// 15,625 pages of 128 tuples, on a random layout and on the partially
// clustered one (a fifth of each value's duplicates contiguous, so about
// a tenth of the pages hold a single value).
const Table& RebuildTable() {
  static const Table* table =
      new Table(MakeRebuildTable(LayoutKind::kRandom));
  return *table;
}

const Table& RebuildClusteredTable() {
  static const Table* table =
      new Table(MakeRebuildTable(LayoutKind::kPartiallyClustered));
  return *table;
}

// The pages one CVB build of a rebuild table reads, in the order it reads
// them. Arguments: layout (0 = random, 1 = partially clustered) and pages
// (1,792 on the random table, about what a build of it reads; all 15,625
// on the clustered one, which a build of it reads).
const Table& PagesTable(const benchmark::State& state) {
  return state.range(0) == 0 ? RebuildTable() : RebuildClusteredTable();
}

// Reading a build's pages: one NextPages call of a sampler with a new seed
// per iteration, the sampler's construction untimed. With no fault
// injector the batch is read in one HeapFile::ReadPagesFaultFree loop.
void BM_NextPages(benchmark::State& state) {
  const Table& table = PagesTable(state);
  const auto blocks = static_cast<std::uint64_t>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    IncrementalBlockSampler sampler(&table, seed++);
    IoStats io;
    const auto start = std::chrono::steady_clock::now();
    auto pages = sampler.NextPages(blocks, &io);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    benchmark::DoNotOptimize(pages.data());
    benchmark::DoNotOptimize(io);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks));
}
BENCHMARK(BM_NextPages)
    ->ArgNames({"layout", "pages"})
    ->Args({0, 1792})
    ->Args({1, 15625})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Counting a build's pages into one key window over their bounds
// (sample_internal::CountPages, as Sample::Add does before its fold). Same
// arguments and pages as BM_NextPages, read once; the window is not
// re-zeroed between iterations.
void BM_CountPages(benchmark::State& state) {
  const Table& table = PagesTable(state);
  IncrementalBlockSampler sampler(&table, 1);
  const std::vector<const Page*> pages =
      sampler.NextPages(static_cast<std::uint64_t>(state.range(1)), nullptr);
  KeyBounds bounds{.min = pages[0]->min_key(), .max = pages[0]->max_key()};
  std::uint64_t tuples = 0;
  for (const Page* page : pages) {
    bounds.min = std::min(bounds.min, page->min_key());
    bounds.max = std::max(bounds.max, page->max_key());
    tuples += page->size();
  }
  std::vector<std::uint64_t> window(bounds.range() + 1);
  for (auto _ : state) {
    sample_internal::CountPages(pages, bounds.min, window);
    benchmark::DoNotOptimize(window.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tuples));
}
BENCHMARK(BM_CountPages)
    ->ArgNames({"layout", "pages"})
    ->Args({0, 1792})
    ->Args({1, 15625})
    ->Unit(benchmark::kMicrosecond);

// The page shuffle every CVB build starts with: a Fisher-Yates permutation
// of all 15,625 page ids of the rebuild table, one bounded draw per id.
void BM_BlockSamplerConstruct(benchmark::State& state) {
  const Table& table = RebuildTable();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    IncrementalBlockSampler sampler(&table, seed++);
    benchmark::DoNotOptimize(sampler.pages_remaining());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.page_count()));
}
BENCHMARK(BM_BlockSamplerConstruct)->Unit(benchmark::kMicrosecond);

// The final statistics of a CVB build (SummarizeSample): density, the
// distinct and once-seen counts and heavy hitters of the final sample of
// one k = 200, f = 0.2 build of the rebuild table, a key window over its
// 20,000 keys.
void BM_SummarizeSample(benchmark::State& state) {
  const Table& table = RebuildTable();
  CvbOptions options;
  options.k = 200;
  options.f = 0.2;
  options.threads = 1;
  const auto result = RunCvb(table, options);
  const SortedView sample = result->sample.view();
  if (!sample.is_window()) {
    state.SkipWithError("the final sample is not a key window");
    return;
  }
  const double scale = static_cast<double>(table.tuple_count()) /
                       static_cast<double>(sample.size());
  for (auto _ : state) {
    auto summary = SummarizeSample(sample, options.k, scale);
    benchmark::DoNotOptimize(summary);
  }
  state.counters["tuples"] = static_cast<double>(sample.size());
}
BENCHMARK(BM_SummarizeSample)->Unit(benchmark::kMicrosecond);

// Serving one estimate frame in process: StatisticsFleet::ServeFrame of a
// 16-predicate request (decode, one pinned batch over the owning shards'
// serving caches, encode) over 32 columns of the shared table on 4
// shards, k = 200, f = 0.2. Each iteration serves the next frame of a
// pool of 64, whose batches start at different columns, so consecutive
// batches touch other columns and shards. Predicates are a third each
// point, narrow (0.1–1% of the domain) and wide (10–50%), as perfbench's
// serve_socket draws them; the frames are encoded and every column built
// and cached on this thread before timing.
void BM_ServeFrame(benchmark::State& state) {
  constexpr std::size_t kColumns = 32;
  constexpr std::size_t kPredicates = 16;
  constexpr std::size_t kFrames = 64;
  const Table& table = SharedTable();
  const ValueSet& truth = SharedValueSet();
  StatisticsShard::Options shard;
  shard.buckets = 200;
  shard.f = 0.2;
  shard.threads = 1;
  StatisticsFleet fleet({.shards = 4, .shard = shard});
  std::vector<std::string> columns;
  for (std::size_t c = 0; c < kColumns; ++c) {
    columns.push_back("s.c" + std::to_string(c));
  }
  if (!fleet.BuildAll(columns, table).ok()) {
    state.SkipWithError("BuildAll failed");
    return;
  }
  Rng rng(29);
  const Value lo_bound = truth.min() - 1;
  const Value span = truth.max() - lo_bound;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t f = 0; f < kFrames; ++f) {
    fleetwire::EstimateBatchRequestFrame request;
    for (std::size_t i = 0; i < kPredicates; ++i) {
      RangeQuery query{};
      if (i % 3 == 0) {
        const Value v = truth.ValueAtRank(rng.NextBounded(truth.size()));
        query = {v - 1, v};
      } else {
        const Value width =
            i % 3 == 1 ? span / 1000 + static_cast<Value>(rng.NextBounded(
                                           static_cast<std::uint64_t>(
                                               span / 100)))
                       : span / 10 + static_cast<Value>(rng.NextBounded(
                                         static_cast<std::uint64_t>(
                                             span * 2 / 5)));
        const Value lo = lo_bound + rng.NextInRange(0, span - width);
        query = {lo, lo + width};
      }
      request.requests.push_back(
          {columns[(f * 7 + i * 3) % kColumns], query});
    }
    frames.push_back(fleetwire::Encode(request));
    if (!fleet.ServeFrame(frames.back(), table).ok()) {
      state.SkipWithError("ServeFrame failed");
      return;
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto response = fleet.ServeFrame(frames[next], table);
    benchmark::DoNotOptimize(response);
    next = next + 1 == kFrames ? 0 : next + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPredicates));
}
BENCHMARK(BM_ServeFrame);

}  // namespace

BENCHMARK_MAIN();
