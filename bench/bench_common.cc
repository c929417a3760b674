#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace equihist::bench {

Scale GetScale(int argc, char** argv) {
  Scale scale;
  const char* env = std::getenv("EQUIHIST_FULL_SCALE");
  scale.full = (env != nullptr && env[0] == '1');
  const char* smoke_env = std::getenv("EQUIHIST_SMOKE");
  scale.smoke = (smoke_env != nullptr && smoke_env[0] == '1');
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") scale.smoke = true;
  }
  if (scale.smoke) {
    scale.full = false;
    scale.default_n = 20000;
    scale.k = 16;
    scale.n_sweep = {10000, 20000};
  } else if (scale.full) {
    scale.default_n = 10000000;
    scale.k = 600;
    scale.n_sweep = {5000000, 10000000, 15000000, 20000000};
  } else {
    scale.default_n = 1000000;
    scale.k = 100;
    scale.n_sweep = {500000, 1000000, 1500000, 2000000};
  }
  return scale;
}

unsigned HostConcurrency() {
  static const unsigned cores = []() {
    const unsigned hc = std::thread::hardware_concurrency();
    const unsigned normalized = hc == 0 ? 1u : hc;
    if (normalized <= 1) {
      std::fprintf(
          stderr,
          "*************************************************************\n"
          "* WARNING: this host reports hardware_concurrency=%u.       *\n"
          "* Parallel-scaling and batch-QPS sections below measure     *\n"
          "* scheduling overhead, NOT parallel speedup. Single-thread  *\n"
          "* ns/query numbers remain meaningful.                       *\n"
          "*************************************************************\n",
          normalized);
    }
    return normalized;
  }();
  return cores;
}

std::string HostJson() {
  return "{\"hardware_concurrency\": " + std::to_string(HostConcurrency()) +
         ", \"compiler\": \"" EQUIHIST_BENCH_COMPILER
         "\", \"build_type\": \"" EQUIHIST_BENCH_BUILD_TYPE "\"}";
}

void WriteBenchJson(const std::string& path, const std::string& json) {
  if (json.find("\"hardware_concurrency\"") == std::string::npos) {
    std::fprintf(stderr,
                 "FATAL: %s does not record hardware_concurrency; the "
                 "perf-regression gate cannot interpret it\n",
                 path.c_str());
    std::abort();
  }
  HostConcurrency();  // surface the single-core warning next to the write
  std::ofstream out(path);
  out << json;
}

void PrintBanner(const std::string& experiment_id, const std::string& title,
                 const Scale& scale) {
  std::printf("=============================================================\n");
  std::printf("%s: %s\n", experiment_id.c_str(), title.c_str());
  std::printf("scale: %s (set EQUIHIST_FULL_SCALE=1 for the paper's sizes)\n",
              scale.smoke ? "SMOKE (CI)"
                          : (scale.full ? "FULL (paper)" : "fast"));
  std::printf("=============================================================\n\n");
}

Dataset MakeZipfDataset(std::uint64_t n, double skew, LayoutKind layout,
                        std::uint32_t record_size_bytes, std::uint64_t seed,
                        double clustered_fraction) {
  auto freq = MakeZipf({.n = n,
                        .domain_size = n / 100,
                        .skew = skew,
                        .seed = seed});
  if (!freq.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 freq.status().ToString().c_str());
    std::exit(1);
  }
  LayoutSpec layout_spec{.kind = layout,
                         .clustered_fraction = clustered_fraction,
                         .seed = seed + 1};
  auto table = Table::Create(*freq, PageConfig{8192, record_size_bytes},
                             layout_spec);
  if (!table.ok()) {
    std::fprintf(stderr, "table build failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  // Build the ValueSet before moving the frequencies into the struct:
  // braced-init evaluates members left to right, so inlining the call
  // would read a moved-from FrequencyVector.
  ValueSet truth = ValueSet::FromFrequencies(*freq);
  return Dataset{std::move(*freq), std::move(truth), std::move(*table)};
}

Dataset MakeUnifDupDataset(std::uint64_t n, std::uint64_t distinct,
                           LayoutKind layout, std::uint32_t record_size_bytes,
                           std::uint64_t seed) {
  auto freq = MakeUniformDup(n, distinct);
  if (!freq.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 freq.status().ToString().c_str());
    std::exit(1);
  }
  LayoutSpec layout_spec{.kind = layout, .seed = seed + 1};
  auto table = Table::Create(*freq, PageConfig{8192, record_size_bytes},
                             layout_spec);
  if (!table.ok()) {
    std::fprintf(stderr, "table build failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  ValueSet truth = ValueSet::FromFrequencies(*freq);
  return Dataset{std::move(*freq), std::move(truth), std::move(*table)};
}

double MeasuredErrorAtBlocks(const Dataset& dataset, std::uint64_t blocks,
                             std::uint64_t k, int trials,
                             std::uint64_t seed0) {
  std::vector<double> errors;
  errors.reserve(trials);
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(seed0 + static_cast<std::uint64_t>(trial) * 1000003);
    auto sample =
        SampleBlocksWithoutReplacement(dataset.table, blocks, rng, nullptr);
    if (!sample.ok()) {
      std::fprintf(stderr, "sampling failed: %s\n",
                   sample.status().ToString().c_str());
      std::exit(1);
    }
    std::sort(sample->begin(), sample->end());
    auto histogram =
        BuildHistogramFromSample(*sample, k, dataset.truth.size());
    if (!histogram.ok()) {
      std::fprintf(stderr, "histogram build failed: %s\n",
                   histogram.status().ToString().c_str());
      std::exit(1);
    }
    errors.push_back(FractionalErrorVsPopulation(*histogram, dataset.truth));
  }
  // Median: the max-over-segments statistic is right-skewed, so the mean
  // would be dominated by one unlucky seed.
  std::sort(errors.begin(), errors.end());
  const std::size_t mid = errors.size() / 2;
  if (errors.size() % 2 == 1) return errors[mid];
  return 0.5 * (errors[mid - 1] + errors[mid]);
}

std::uint64_t BlocksForTargetError(const Dataset& dataset, double target_error,
                                   std::uint64_t k, int trials,
                                   std::uint64_t seed0) {
  const std::uint64_t max_blocks = dataset.table.page_count();
  // Exponential search for an upper bracket.
  std::uint64_t hi = 4;
  while (hi < max_blocks &&
         MeasuredErrorAtBlocks(dataset, hi, k, trials, seed0) > target_error) {
    hi *= 2;
  }
  if (hi >= max_blocks) {
    if (MeasuredErrorAtBlocks(dataset, max_blocks, k, trials, seed0) >
        target_error) {
      return max_blocks;
    }
    hi = max_blocks;
  }
  std::uint64_t lo = hi / 2;
  // Bisect to ~10% precision; the measurement is noisy so finer is futile.
  while (hi > lo + std::max<std::uint64_t>(1, lo / 10)) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (MeasuredErrorAtBlocks(dataset, mid, k, trials, seed0) <= target_error) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace equihist::bench
