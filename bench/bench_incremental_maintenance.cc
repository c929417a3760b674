// PERF4: incremental O(Δ) statistics maintenance vs the full-rebuild
// treadmill (DESIGN.md §15). A StatisticsManager serves one Zipf column
// through the incremental-equi-depth backend; the bench applies a churn of
// Δ value-carrying DML ops (RecordInsert/RecordDelete) and times the
// EnsureFresh that follows — an O(Δ) publish from the live reservoir-backed
// state — against a from-scratch build of the same column. Each cell's row
// is the median of kRounds rounds, each on a fresh build that first takes
// one small untimed churn-and-refresh, so the timed refresh is a steady
// one rather than the first after a build. Churn rates
// sweep 0.1% / 1% / 10% of n plus two over-budget points so the
// fallback-to-rebuild crossover (the incremental_repair_budget boundary)
// lands inside the sweep, under three drift patterns:
//
//   uniform      inserts and deletes drawn uniformly from the live domain
//   hot_key      every insert hits one value (a skew spike growing in place)
//   domain_shift inserts land past the old maximum (an advancing frontier)
//
// Emits BENCH_incremental_maintenance.json (mirrored to stdout) with the
// host's hardware concurrency; scripts/check_perf_regression.py gates CI
// on the refresh-ns/Δ-row metrics. The full_rebuild block also records
// what that build reads (pages_read) and how good it is (frac_error: f'
// of its histogram against the column, FractionalErrorVsPopulation).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/error_metrics.h"
#include "stats/statistics_manager.h"

namespace {

using namespace equihist;
using bench::Dataset;

constexpr char kColumn[] = "col";
// 0.1% / 1% / 10% (the headline rates), then two points straddling the
// default incremental_repair_budget of 0.5 so the sweep records where the
// manager stops repairing and reseeds from the table.
constexpr double kChurnRates[] = {0.001, 0.01, 0.1, 0.3, 0.75};
const char* const kPatterns[] = {"uniform", "hot_key", "domain_shift"};
// Rounds per cell; a row reports the median dml and refresh times.
constexpr int kRounds = 3;
// DML ops of the untimed churn-and-refresh that follows each build. The
// first refresh after a build pays page faults for heap the build's frees
// returned to the system, which is allocator state, not refresh cost;
// this warm-up pays them instead. 64 ops leave the repair budget as it
// was for every swept rate.
constexpr std::uint64_t kWarmupOps = 64;

double TimeMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

StatisticsManager::Options ManagerOptions(const bench::Scale& scale) {
  StatisticsManager::Options options;
  options.buckets = scale.k;
  options.default_backend = HistogramBackendId::kIncrementalEquiDepth;
  // Any recorded DML makes the column stale, so every EnsureFresh after a
  // churn burst actually refreshes — the bench measures the refresh, not
  // the 20% rule.
  options.staleness_threshold = 1e-12;
  options.threads = 1;
  options.seed = 99;
  return options;
}

struct Run {
  std::string pattern;
  double churn = 0.0;
  std::uint64_t delta_rows = 0;
  double dml_ms = 0.0;      // applying the Δ RecordInsert/RecordDelete calls
  double refresh_ms = 0.0;  // the EnsureFresh that publishes afterwards
  bool incremental = false; // refresh was O(Δ), not a fallback rebuild
  double refresh_ns_per_delta_row = 0.0;  // (dml + refresh) / Δ
  double speedup_vs_rebuild = 0.0;
};

// One DML op of the pattern: even ops insert, odd ops delete a value that
// (most likely) exists. All draws come from one sequential Rng stream, so
// the op sequence is a pure function of (pattern, churn, seed).
void ApplyChurn(StatisticsManager& manager, const std::string& pattern,
                std::uint64_t delta, std::uint64_t domain, Rng& rng) {
  const Value hot = static_cast<Value>(domain / 2 + 1);
  for (std::uint64_t i = 0; i < delta; ++i) {
    if ((i & 1) == 0) {
      Value v;
      if (pattern == "hot_key") {
        v = hot;
      } else if (pattern == "domain_shift") {
        v = static_cast<Value>(domain + 1 + rng.NextBounded(domain));
      } else {
        v = static_cast<Value>(1 + rng.NextBounded(domain));
      }
      manager.RecordInsert(kColumn, v);
    } else {
      manager.RecordDelete(kColumn,
                           static_cast<Value>(1 + rng.NextBounded(domain)));
    }
  }
}

// The yardstick build: its best time over three builds, and the first
// build's page reads and f' against the column.
struct Rebuild {
  double best_ms = -1.0;
  std::uint64_t pages_read = 0;
  double frac_error = 0.0;
};

std::string ToJson(const std::vector<Run>& runs, const Rebuild& rebuild,
                   double rebuild_ns_per_row, double crossover_churn,
                   const bench::Scale& scale, std::uint64_t capacity) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"incremental_maintenance\",\n";
  os << "  \"full_scale\": " << (scale.full ? "true" : "false") << ",\n";
  os << "  \"n\": " << scale.default_n << ",\n";
  os << "  \"buckets\": " << scale.k << ",\n";
  os << "  \"reservoir_capacity\": " << capacity << ",\n";
  os << "  \"host\": " << bench::HostJson() << ",\n";
  os << "  \"full_rebuild\": {\"best_ms\": " << rebuild.best_ms
     << ", \"ns_per_table_row\": " << rebuild_ns_per_row
     << ", \"pages_read\": " << rebuild.pages_read
     << ", \"frac_error\": " << rebuild.frac_error << "},\n";
  // The smallest churn the manager answered with a fallback rebuild (the
  // repair-budget boundary); -1 when every swept rate stayed incremental.
  os << "  \"fallback_crossover_churn\": " << crossover_churn << ",\n";
  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    os << "    {\"pattern\": \"" << r.pattern << "\", \"churn\": " << r.churn
       << ", \"delta_rows\": " << r.delta_rows
       << ", \"dml_ms\": " << r.dml_ms << ", \"refresh_ms\": " << r.refresh_ms
       << ", \"incremental\": " << (r.incremental ? "true" : "false")
       << ", \"refresh_ns_per_delta_row\": " << r.refresh_ns_per_delta_row
       << ", \"speedup_vs_rebuild\": " << r.speedup_vs_rebuild << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::GetScale(argc, argv);
  bench::PrintBanner("PERF4", "Incremental maintenance vs full rebuild",
                     scale);

  const std::uint64_t n = scale.default_n;
  const std::uint64_t domain = scale.DomainFor(n);
  const Dataset dataset =
      bench::MakeZipfDataset(n, /*skew=*/1.0, LayoutKind::kRandom);
  const StatisticsManager::Options options = ManagerOptions(scale);

  // The yardstick: a from-scratch build of the same column through the
  // same backend — exactly what the fallback path (and the treadmill this
  // PR retires) pays per refresh. Best-of-3 to shed scheduler noise.
  Rebuild rebuild;
  for (int rep = 0; rep < 3; ++rep) {
    StatisticsManager fresh(options);
    std::shared_ptr<const ColumnStatistics> stats;
    const double ms = TimeMs([&]() {
      auto built = fresh.GetOrBuildShared(kColumn, dataset.table);
      if (!built.ok()) {
        std::cerr << "rebuild failed: " << built.status().ToString() << "\n";
        std::exit(1);
      }
      stats = *built;
    });
    if (rebuild.best_ms < 0.0 || ms < rebuild.best_ms) rebuild.best_ms = ms;
    if (rep == 0) {
      rebuild.pages_read = stats->build_cost.pages_read;
      rebuild.frac_error =
          FractionalErrorVsPopulation(stats->histogram(), dataset.truth);
    }
  }
  const double rebuild_ms = rebuild.best_ms;
  const double rebuild_ns_per_row = rebuild_ms * 1e6 / static_cast<double>(n);
  std::cerr << "full rebuild: best_ms=" << rebuild_ms
            << " pages_read=" << rebuild.pages_read
            << " frac_error=" << rebuild.frac_error << "\n";

  std::vector<Run> runs;
  double crossover_churn = -1.0;
  for (const char* pattern : kPatterns) {
    for (const double churn : kChurnRates) {
      const auto delta = static_cast<std::uint64_t>(
          std::max(1.0, churn * static_cast<double>(n)));
      Run run;
      run.pattern = pattern;
      run.churn = churn;
      run.delta_rows = delta;
      run.incremental = true;
      std::vector<double> dml_ms;
      std::vector<double> refresh_ms;
      for (int round = 0; round < kRounds; ++round) {
        // A fresh manager per round: every refresh is measured against the
        // same warm, just-built state, independent of the sweep order.
        StatisticsManager manager(options);
        auto built = manager.GetOrBuildShared(kColumn, dataset.table);
        if (!built.ok()) {
          std::cerr << "initial build failed: " << built.status().ToString()
                    << "\n";
          return 1;
        }
        auto refresh = [&]() {
          auto fresh = manager.EnsureFresh(kColumn, dataset.table);
          if (!fresh.ok()) {
            std::cerr << "refresh failed: " << fresh.status().ToString()
                      << "\n";
            std::exit(1);
          }
        };
        Rng warmup_rng(DeriveStreamSeed(8, delta));
        ApplyChurn(manager, pattern, kWarmupOps, domain, warmup_rng);
        refresh();

        Rng rng(DeriveStreamSeed(7, delta));
        dml_ms.push_back(TimeMs(
            [&]() { ApplyChurn(manager, pattern, delta, domain, rng); }));
        const std::uint64_t refreshes_before =
            manager.incremental_refresh_count();
        refresh_ms.push_back(TimeMs(refresh));
        run.incremental = run.incremental &&
                          manager.incremental_refresh_count() ==
                              refreshes_before + 1;
      }
      run.dml_ms = Median(dml_ms);
      run.refresh_ms = Median(refresh_ms);
      const double total_ms = run.dml_ms + run.refresh_ms;
      run.refresh_ns_per_delta_row =
          total_ms * 1e6 / static_cast<double>(delta);
      run.speedup_vs_rebuild = total_ms > 0.0 ? rebuild_ms / total_ms : 0.0;
      if (!run.incremental &&
          (crossover_churn < 0.0 || churn < crossover_churn)) {
        crossover_churn = churn;
      }
      runs.push_back(run);
      std::cerr << "  " << pattern << " churn=" << churn << " delta=" << delta
                << " dml_ms=" << run.dml_ms
                << " refresh_ms=" << run.refresh_ms
                << (run.incremental ? " [incremental]" : " [full rebuild]")
                << " speedup=" << run.speedup_vs_rebuild << "x\n";
    }
  }

  const std::string json =
      ToJson(runs, rebuild, rebuild_ns_per_row, crossover_churn, scale,
             options.reservoir_capacity);
  std::cout << json;
  bench::WriteBenchJson("BENCH_incremental_maintenance.json", json);

  // The headline claim: at ≤1% churn the refresh beats the rebuild by
  // ≥10x. Enforced at fast/full scale so the bench rots loudly; at smoke
  // scale (n = 20k) the rebuild is too cheap for the ratio to mean
  // anything, so smoke only checks that every ≤1% refresh stayed
  // incremental (the code-path contract).
  bool ok = true;
  for (const Run& run : runs) {
    if (run.churn <= 0.01 &&
        (!run.incremental ||
         (!scale.smoke && run.speedup_vs_rebuild < 10.0))) {
      std::cerr << "ERROR: " << run.pattern << " churn=" << run.churn
                << " expected an incremental refresh >=10x cheaper than a "
                   "rebuild, got "
                << run.speedup_vs_rebuild << "x"
                << (run.incremental ? "" : " (fell back to rebuild)") << "\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
