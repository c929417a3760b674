// PERF: google-benchmark microbenchmarks for the library's hot paths —
// construction throughput numbers a user evaluating this library would ask
// for. Not a paper figure; complements the experiment harnesses.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/parallel_sort.h"

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

void BM_SampleMerge(benchmark::State& state) {
  Rng rng(6);
  const auto base = SampleRowsWithReplacement(
      SharedValueSet().sorted_values(), 100000, rng);
  auto batch = SampleRowsWithReplacement(SharedValueSet().sorted_values(),
                                         100000, rng);
  std::sort(batch.begin(), batch.end());
  for (auto _ : state) {
    Sample sample(base);
    sample.MergeSorted(batch);
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_SampleMerge);

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
      parallel_internal::RadixSort(data.data(), data.size(), scratch.data());
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

void BM_CvbEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    CvbOptions options;
    options.k = 200;
    options.f = 0.2;
    options.seed = 9;
    auto result = RunCvb(SharedTable(), options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CvbEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
