// PERF2: strong-scaling study of the parallel construction engine —
// full-scan statistics builds and CVB sampled builds at 1/2/4/8 worker
// threads over the paper's default Zipf column. For every thread count the
// resulting histogram is checked bit-identical to the single-threaded
// build (the engine's core guarantee), so the speedups are for the *same*
// answer, not a relaxed one.
//
// Emits a machine-readable JSON report (BENCH_parallel_scaling.json in the
// working directory, mirrored to stdout) including the host's hardware
// concurrency: scaling numbers are only meaningful relative to the cores
// that were actually available.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "stats/column_statistics.h"

namespace {

using namespace equihist;
using bench::Dataset;

constexpr std::uint64_t kThreadCounts[] = {1, 2, 4, 8};
constexpr int kReps = 3;  // best-of, to shed scheduler noise

double TimeMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

bool SameHistogram(const Histogram& a, const Histogram& b) {
  return a.separators() == b.separators() && a.counts() == b.counts() &&
         a.lower_fence() == b.lower_fence() &&
         a.upper_fence() == b.upper_fence();
}

struct Measurement {
  std::uint64_t threads = 0;
  double best_ms = 0.0;
  bool identical = true;  // histogram matches the threads=1 run bit-for-bit
};

struct WorkloadReport {
  std::string name;
  std::vector<Measurement> runs;
};

// Runs `build` (which returns the built histogram) at every thread count,
// checking each result against the single-threaded reference.
template <typename BuildFn>
WorkloadReport RunWorkload(const std::string& name, const BuildFn& build) {
  WorkloadReport report{.name = name, .runs = {}};
  std::optional<Histogram> reference;
  for (const std::uint64_t threads : kThreadCounts) {
    Measurement m{.threads = threads};
    std::optional<Histogram> latest;
    double best = -1.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double ms = TimeMs([&]() { latest = build(threads); });
      if (best < 0.0 || ms < best) best = ms;
    }
    m.best_ms = best;
    if (threads == 1) {
      reference = std::move(latest);
    } else {
      m.identical = SameHistogram(*latest, *reference);
    }
    report.runs.push_back(m);
    std::cerr << "  " << name << " threads=" << threads << " best_ms=" << best
              << (m.identical ? "" : "  ** MISMATCH vs threads=1 **") << "\n";
  }
  return report;
}

std::string ToJson(const std::vector<WorkloadReport>& workloads,
                   const bench::Scale& scale) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"parallel_scaling\",\n";
  os << "  \"full_scale\": " << (scale.full ? "true" : "false") << ",\n";
  os << "  \"n\": " << scale.default_n << ",\n";
  os << "  \"buckets\": " << scale.k << ",\n";
  os << "  \"host\": " << bench::HostJson() << ",\n";
  os << "  \"workloads\": [\n";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadReport& report = workloads[w];
    const double base_ms = report.runs.empty() ? 0.0 : report.runs[0].best_ms;
    os << "    {\"name\": \"" << report.name << "\", \"results\": [\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
      const Measurement& m = report.runs[i];
      const double speedup = m.best_ms > 0.0 ? base_ms / m.best_ms : 0.0;
      os << "      {\"threads\": " << m.threads << ", \"best_ms\": " << m.best_ms
         << ", \"speedup_vs_1\": " << speedup
         << ", \"identical_to_single_thread\": "
         << (m.identical ? "true" : "false") << "}"
         << (i + 1 < report.runs.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (w + 1 < workloads.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::GetScale(argc, argv);
  bench::PrintBanner("PERF2", "Parallel engine strong scaling", scale);

  const Dataset random = bench::MakeZipfDataset(scale.default_n, /*skew=*/1.0,
                                                LayoutKind::kRandom);
  const Dataset sorted = bench::MakeZipfDataset(scale.default_n, /*skew=*/1.0,
                                                LayoutKind::kSorted);

  std::vector<WorkloadReport> workloads;

  workloads.push_back(RunWorkload(
      "full_scan_build", [&](std::uint64_t threads) -> Histogram {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
        auto stats =
            BuildStatisticsFullScan(random.table, scale.k, pool.get());
        if (!stats.ok()) {
          std::cerr << "full-scan build failed: "
                    << stats.status().ToString() << "\n";
          std::exit(1);
        }
        return stats->histogram();
      }));

  const auto cvb_workload = [&](const std::string& name,
                                const Dataset& dataset) {
    return RunWorkload(name, [&](std::uint64_t threads) -> Histogram {
      CvbOptions options;
      options.k = scale.k;
      options.f = 0.1;
      options.threads = threads;
      auto result = RunCvb(dataset.table, options);
      if (!result.ok()) {
        std::cerr << name << " failed: " << result.status().ToString() << "\n";
        std::exit(1);
      }
      return std::move(result->histogram);
    });
  };
  workloads.push_back(cvb_workload("cvb_random_layout", random));
  workloads.push_back(cvb_workload("cvb_sorted_layout", sorted));

  bool all_identical = true;
  for (const WorkloadReport& report : workloads) {
    for (const Measurement& m : report.runs) all_identical &= m.identical;
  }

  const std::string json = ToJson(workloads, scale);
  std::cout << json;
  bench::WriteBenchJson("BENCH_parallel_scaling.json", json);
  std::cerr << (all_identical
                    ? "all thread counts produced bit-identical histograms\n"
                    : "ERROR: histogram mismatch across thread counts\n");
  return all_identical ? 0 : 1;
}
