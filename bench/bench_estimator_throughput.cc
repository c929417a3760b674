// PERF3: serving-path throughput — the compiled O(log k) estimator vs the
// reference bucket-walking loop, across bucket counts k in {32, 200, 1000,
// 10000} and three query shapes (point, narrow, wide). Two studies:
//
//   single_thread: ns/query for compiled vs reference on one thread. The
//     reference is O(buckets covered), so wide ranges at large k are where
//     the compiled path must win big (the acceptance bar is >= 5x at
//     k >= 1000).
//   batch: queries/second of one thread looping EstimateRangeCount over
//     the three classes' queries mixed into one list — the row
//     scripts/check_perf_regression.py gates as k=*/batch1_ns_per_query.
//   manager_serving: the DESIGN.md §11 robustness guard — ns/query of
//     StatisticsManager::EstimateRange (fault hooks compiled in, no
//     injector attached) vs the raw model path, measured twice: on a
//     healthy column and again while the column sits in stale-while-error
//     degradation (fault injector attached, a rebuild failed, breaker
//     bookkeeping populated). All three runs must produce bitwise-equal
//     estimate sums — a failed rebuild never republishes — and the
//     degraded/healthy ratio shows the fault machinery adds nothing to
//     the serving fast path.
//
// Every configuration first cross-checks compiled vs reference estimates
// on a query subsample (the documented ulp-level tolerance); a mismatch
// fails the whole bench with a nonzero exit, so the speedups are for the
// same answers. Emits BENCH_estimator_throughput.json (mirrored to
// stdout).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/compiled_estimator.h"
#include "core/range_estimator.h"
#include "stats/statistics_manager.h"
#include "storage/fault_injection.h"

namespace {

using namespace equihist;

constexpr std::uint64_t kBucketCounts[] = {32, 200, 1000, 10000};
constexpr int kReps = 3;  // best-of, to shed scheduler noise

struct QueryClass {
  std::string name;
  std::vector<RangeQuery> queries;
};

struct SingleThreadRow {
  std::string query_class;
  double compiled_ns_per_query = 0.0;
  double reference_ns_per_query = 0.0;
  double speedup = 0.0;
  std::uint64_t reference_queries = 0;  // the O(k) loop runs a subset
};

struct KReport {
  std::uint64_t k = 0;
  std::uint64_t actual_buckets = 0;
  std::vector<SingleThreadRow> single_thread;
  double batch_qps = 0.0;  // one thread over the mixed list
};

// Multi-column batching: a predicate list interleaving several columns
// answered by ONE StatisticsManager::EstimateBatch call vs the per-request
// EstimateRange loop it replaces.
struct MultiColumnRow {
  std::uint64_t batch_size = 0;
  double batch_ns_per_query = 0.0;
  double per_request_ns_per_query = 0.0;
  double speedup = 0.0;
};

// The §11 serving guard: raw model path vs manager fast path, healthy and
// then degraded (stale-while-error with a fault injector attached).
struct ManagerServingReport {
  std::uint64_t n = 0;
  std::uint64_t buckets = 0;
  std::uint64_t queries = 0;
  double direct_ns_per_query = 0.0;
  double healthy_ns_per_query = 0.0;
  double degraded_ns_per_query = 0.0;
  double healthy_overhead_vs_direct = 0.0;
  double degraded_vs_healthy = 0.0;
  bool estimates_identical = false;  // all three sums bitwise equal
  bool degradation_established = false;
};

double ElapsedNs(const std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count();
}

// Generates `count` queries of a given width over the histogram's domain.
std::vector<RangeQuery> MakeQueries(Rng& rng, Value lo_fence, Value hi_fence,
                                    std::uint64_t width, std::size_t count) {
  std::vector<RangeQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Value lo = rng.NextInRange(lo_fence, hi_fence - 1);
    const Value hi =
        (hi_fence - lo > static_cast<Value>(width)) ? lo + static_cast<Value>(width)
                                                    : hi_fence;
    queries.push_back({lo, hi});
  }
  return queries;
}

// Times fn() best-of-kReps and returns nanoseconds; `sink` accumulates the
// estimates so the optimizer cannot discard the work.
template <typename Fn>
double BestNs(const Fn& fn, double* sink) {
  double best = -1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    *sink += fn();
    const double ns = ElapsedNs(start);
    if (best < 0.0 || ns < best) best = ns;
  }
  return best;
}

// Verifies compiled and reference agree on a subsample, within the
// documented tolerance (ulps of the largest bucket count).
bool Verified(const Histogram& histogram, const CompiledEstimator& compiled,
              const std::vector<RangeQuery>& queries) {
  std::uint64_t max_count = 0;
  for (const std::uint64_t c : histogram.counts()) {
    max_count = std::max(max_count, c);
  }
  const double tolerance = 1e-10 * (1.0 + static_cast<double>(max_count));
  const std::size_t step = std::max<std::size_t>(queries.size() / 2000, 1);
  for (std::size_t i = 0; i < queries.size(); i += step) {
    const double fast = compiled.EstimateRangeCount(queries[i]);
    const double slow = EstimateRangeCount(histogram, queries[i]);
    if (std::abs(fast - slow) > tolerance) {
      std::cerr << "MISMATCH at query (" << queries[i].lo << ", "
                << queries[i].hi << "]: compiled=" << fast
                << " reference=" << slow << "\n";
      return false;
    }
  }
  return true;
}

std::string ToJson(const std::vector<KReport>& reports,
                   const std::vector<MultiColumnRow>& multi_column,
                   const ManagerServingReport& serving, std::uint64_t n,
                   std::size_t queries_per_class) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"estimator_throughput\",\n";
  os << "  \"n\": " << n << ",\n";
  os << "  \"queries_per_class\": " << queries_per_class << ",\n";
  os << "  \"host\": " << bench::HostJson() << ",\n";
  os << "  \"batch_multi_column\": [\n";
  for (std::size_t i = 0; i < multi_column.size(); ++i) {
    const MultiColumnRow& row = multi_column[i];
    os << "    {\"batch_size\": " << row.batch_size
       << ", \"batch_ns_per_query\": " << row.batch_ns_per_query
       << ", \"per_request_ns_per_query\": " << row.per_request_ns_per_query
       << ", \"speedup\": " << row.speedup << "}"
       << (i + 1 < multi_column.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"manager_serving\": {\n";
  os << "    \"n\": " << serving.n << ", \"buckets\": " << serving.buckets
     << ", \"queries\": " << serving.queries << ",\n";
  os << "    \"direct_ns_per_query\": " << serving.direct_ns_per_query
     << ",\n";
  os << "    \"healthy_ns_per_query\": " << serving.healthy_ns_per_query
     << ",\n";
  os << "    \"degraded_ns_per_query\": " << serving.degraded_ns_per_query
     << ",\n";
  os << "    \"healthy_overhead_vs_direct\": "
     << serving.healthy_overhead_vs_direct << ",\n";
  os << "    \"degraded_vs_healthy\": " << serving.degraded_vs_healthy
     << ",\n";
  os << "    \"estimates_identical\": "
     << (serving.estimates_identical ? "true" : "false") << ",\n";
  os << "    \"degradation_established\": "
     << (serving.degradation_established ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"configurations\": [\n";
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const KReport& report = reports[r];
    os << "    {\"k\": " << report.k
       << ", \"buckets\": " << report.actual_buckets
       << ", \"single_thread\": [\n";
    for (std::size_t i = 0; i < report.single_thread.size(); ++i) {
      const SingleThreadRow& row = report.single_thread[i];
      os << "      {\"class\": \"" << row.query_class
         << "\", \"compiled_ns_per_query\": " << row.compiled_ns_per_query
         << ", \"reference_ns_per_query\": " << row.reference_ns_per_query
         << ", \"reference_queries\": " << row.reference_queries
         << ", \"speedup\": " << row.speedup << "}"
         << (i + 1 < report.single_thread.size() ? "," : "") << "\n";
    }
    os << "    ], \"batch\": [\n";
    os << "      {\"threads\": 1, \"qps\": " << report.batch_qps << "}\n";
    os << "    ]}" << (r + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::GetScale(argc, argv);
  bench::PrintBanner("PERF3", "Compiled estimator serving throughput", scale);

  const std::size_t queries_per_class = scale.full ? 200000 : 50000;
  double sink = 0.0;
  bool all_verified = true;
  std::vector<KReport> reports;

  for (const std::uint64_t k : kBucketCounts) {
    // A skewed column (heavy values become duplicated-separator spikes)
    // with enough distinct values to give every bucket real width.
    const auto freqs = MakeZipf({.n = scale.default_n,
                                 .domain_size = std::max<std::uint64_t>(
                                     scale.default_n / 20, 4 * k),
                                 .skew = 1.0,
                                 .seed = 42});
    if (!freqs.ok()) {
      std::cerr << "dataset failed: " << freqs.status().ToString() << "\n";
      return 1;
    }
    const ValueSet data = ValueSet::FromFrequencies(*freqs);
    const auto histogram = BuildPerfectHistogram(data, k);
    if (!histogram.ok()) {
      std::cerr << "histogram failed: " << histogram.status().ToString()
                << "\n";
      return 1;
    }
    const CompiledEstimator compiled(*histogram);

    KReport report;
    report.k = k;
    report.actual_buckets = histogram->bucket_count();
    const Value lf = histogram->lower_fence();
    const Value uf = histogram->upper_fence();
    const auto domain =
        static_cast<std::uint64_t>(static_cast<double>(uf - lf));

    Rng rng(7 + k);
    std::vector<QueryClass> classes;
    classes.push_back(
        {"point", MakeQueries(rng, lf, uf, 1, queries_per_class)});
    classes.push_back({"narrow", MakeQueries(rng, lf, uf,
                                             std::max<std::uint64_t>(
                                                 domain / 1000, 2),
                                             queries_per_class)});
    classes.push_back(
        {"wide", MakeQueries(rng, lf, uf, domain / 2, queries_per_class)});

    std::vector<RangeQuery> mixed;
    mixed.reserve(3 * queries_per_class);
    for (const QueryClass& qc : classes) {
      all_verified &= Verified(*histogram, compiled, qc.queries);
      mixed.insert(mixed.end(), qc.queries.begin(), qc.queries.end());
    }

    // -- single-thread ns/query, compiled vs reference --------------------
    for (const QueryClass& qc : classes) {
      SingleThreadRow row;
      row.query_class = qc.name;
      const double compiled_ns = BestNs(
          [&]() {
            double acc = 0.0;
            for (const RangeQuery& q : qc.queries) {
              acc += compiled.EstimateRangeCount(q);
            }
            return acc;
          },
          &sink);
      row.compiled_ns_per_query =
          compiled_ns / static_cast<double>(qc.queries.size());
      // The reference loop is O(k) on wide ranges; cap its query count so
      // the bench stays fast at k=10000, and report per-query time.
      const std::size_t ref_count = std::min<std::size_t>(
          qc.queries.size(),
          std::max<std::size_t>(2000, 4000000 / std::max<std::uint64_t>(k, 1)));
      const double reference_ns = BestNs(
          [&]() {
            double acc = 0.0;
            for (std::size_t i = 0; i < ref_count; ++i) {
              acc += EstimateRangeCount(*histogram, qc.queries[i]);
            }
            return acc;
          },
          &sink);
      row.reference_queries = ref_count;
      row.reference_ns_per_query =
          reference_ns / static_cast<double>(ref_count);
      row.speedup = row.compiled_ns_per_query > 0.0
                        ? row.reference_ns_per_query / row.compiled_ns_per_query
                        : 0.0;
      report.single_thread.push_back(row);
      std::cerr << "  k=" << k << " " << row.query_class
                << ": compiled=" << row.compiled_ns_per_query
                << " ns/q, reference=" << row.reference_ns_per_query
                << " ns/q, speedup=" << row.speedup << "x\n";
    }

    // -- one thread over the mixed list -----------------------------------
    const double batch_ns = BestNs(
        [&]() {
          double acc = 0.0;
          for (const RangeQuery& q : mixed) {
            acc += compiled.EstimateRangeCount(q);
          }
          return acc;
        },
        &sink);
    report.batch_qps = static_cast<double>(mixed.size()) / (batch_ns * 1e-9);
    std::cerr << "  k=" << k << " batch: " << report.batch_qps / 1e6
              << " Mq/s\n";
    reports.push_back(std::move(report));
  }

  // -- multi-column batch estimation ----------------------------------------
  //
  // A planner estimating a predicate list touches several columns at once.
  // EstimateBatch pins each column's serving snapshot at its first request
  // and answers every request in order from the pinned models, in one
  // loop — vs the per-request loop that re-enters the manager (slot
  // lookup, publication-counter check) for every single predicate.
  std::vector<MultiColumnRow> multi_column;
  {
    const std::uint64_t mc_n = std::min<std::uint64_t>(scale.default_n,
                                                       200000);
    bench::Dataset dataset =
        bench::MakeZipfDataset(mc_n, 1.0, LayoutKind::kRandom, 64, 1337);
    StatisticsManager::Options options;
    options.buckets = scale.k;
    options.seed = 23;
    options.threads = 1;
    options.column_backends["col2"] = HistogramBackendId::kEquiWidth;
    StatisticsManager manager(options);
    const std::vector<std::string> columns = {"col0", "col1", "col2"};
    // Warm every column so both timings measure pure serving.
    for (const std::string& column : columns) {
      const auto built = manager.GetOrBuildShared(column, dataset.table);
      if (!built.ok()) {
        std::cerr << "multi-column build failed: "
                  << built.status().ToString() << "\n";
        return 1;
      }
    }
    const Value lf = dataset.truth.min();
    const Value uf = dataset.truth.max();
    const auto domain =
        static_cast<std::uint64_t>(static_cast<double>(uf - lf));
    Rng rng(4242);
    for (const std::uint64_t batch_size : {8u, 64u, 1024u}) {
      std::vector<BatchEstimateRequest> requests;
      requests.reserve(batch_size);
      const auto widths = std::vector<std::uint64_t>{
          1, std::max<std::uint64_t>(domain / 1000, 2), domain / 2};
      for (std::uint64_t i = 0; i < batch_size; ++i) {
        const Value lo = rng.NextInRange(lf, uf - 1);
        const std::uint64_t width = widths[i % widths.size()];
        const Value hi = (uf - lo > static_cast<Value>(width))
                             ? lo + static_cast<Value>(width)
                             : uf;
        requests.push_back({columns[i % columns.size()], {lo, hi}});
      }
      // Amortize timer resolution: many calls per rep for small batches.
      const std::uint64_t iters =
          std::max<std::uint64_t>(1, (scale.smoke ? 2000 : 20000) / batch_size);
      const double total =
          static_cast<double>(iters) * static_cast<double>(batch_size);
      BatchEstimateResult result;
      const double batch_ns = BestNs(
          [&]() {
            double acc = 0.0;
            for (std::uint64_t it = 0; it < iters; ++it) {
              if (!manager.EstimateBatch(dataset.table, requests, &result)
                       .ok()) {
                std::cerr << "EstimateBatch failed\n";
                std::exit(1);
              }
              acc += result.estimates[0];
            }
            return acc;
          },
          &sink);
      const double per_request_ns = BestNs(
          [&]() {
            double acc = 0.0;
            for (std::uint64_t it = 0; it < iters; ++it) {
              for (const BatchEstimateRequest& request : requests) {
                const auto est = manager.EstimateRange(
                    request.column, dataset.table, request.query);
                acc += est.ok() ? *est : 0.0;
              }
            }
            return acc;
          },
          &sink);
      MultiColumnRow row;
      row.batch_size = batch_size;
      row.batch_ns_per_query = batch_ns / total;
      row.per_request_ns_per_query = per_request_ns / total;
      row.speedup = row.batch_ns_per_query > 0.0
                        ? row.per_request_ns_per_query / row.batch_ns_per_query
                        : 0.0;
      multi_column.push_back(row);
      std::cerr << "  multi-column batch_size=" << batch_size
                << ": batch=" << row.batch_ns_per_query
                << " ns/q, per-request=" << row.per_request_ns_per_query
                << " ns/q, speedup=" << row.speedup << "x\n";
    }
  }

  // -- manager serving overhead (the DESIGN.md §11 robustness guard) -------
  //
  // The fault-tolerance machinery (retry, health bookkeeping, breaker,
  // fallback) lives entirely in the build/slow paths; serving must cost
  // the same with it compiled in. Three timings over one query mix:
  //   direct:   ColumnStatistics::EstimateRangeCount on the snapshot — the
  //             raw model/compiled path with no manager in front.
  //   healthy:  StatisticsManager::EstimateRange on a fresh column (fault
  //             hooks compiled but no injector attached).
  //   degraded: the same calls while the column is stale-while-error — a
  //             fault injector is attached and a rebuild has failed, so
  //             the degraded-serving state is fully populated.
  // All three accumulate the same sum bitwise (same published snapshot,
  // same iteration order); a mismatch — or a degraded run that issues even
  // one storage read — fails the bench.
  ManagerServingReport serving;
  {
    const std::uint64_t mgr_n = std::min<std::uint64_t>(scale.default_n,
                                                        200000);
    bench::Dataset dataset =
        bench::MakeZipfDataset(mgr_n, 1.0, LayoutKind::kRandom, 64, 2026);
    StatisticsManager::Options options;
    options.buckets = scale.k;
    options.seed = 17;
    options.threads = 1;
    StatisticsManager manager(options);
    const std::string column = "bench.col";
    const auto snapshot = manager.GetOrBuildShared(column, dataset.table);
    if (!snapshot.ok()) {
      std::cerr << "manager build failed: " << snapshot.status().ToString()
                << "\n";
      return 1;
    }
    const ColumnStatistics& stats = **snapshot;
    const Value lf = stats.histogram().lower_fence();
    const Value uf = stats.histogram().upper_fence();
    const auto domain =
        static_cast<std::uint64_t>(static_cast<double>(uf - lf));
    Rng rng(2026);
    std::vector<RangeQuery> queries = MakeQueries(rng, lf, uf, 1,
                                                  queries_per_class / 3);
    {
      auto narrow = MakeQueries(rng, lf, uf,
                                std::max<std::uint64_t>(domain / 1000, 2),
                                queries_per_class / 3);
      auto wide = MakeQueries(rng, lf, uf, domain / 2, queries_per_class / 3);
      queries.insert(queries.end(), narrow.begin(), narrow.end());
      queries.insert(queries.end(), wide.begin(), wide.end());
    }
    serving.n = mgr_n;
    serving.buckets = stats.histogram().bucket_count();
    serving.queries = queries.size();

    const auto direct_pass = [&]() {
      double acc = 0.0;
      for (const RangeQuery& q : queries) acc += stats.EstimateRangeCount(q);
      return acc;
    };
    const auto manager_pass = [&]() {
      double acc = 0.0;
      for (const RangeQuery& q : queries) {
        const auto est = manager.EstimateRange(column, dataset.table, q);
        acc += est.ok() ? *est : 0.0;
      }
      return acc;
    };

    const double direct_sum = direct_pass();
    const double healthy_sum = manager_pass();
    const double count = static_cast<double>(queries.size());
    serving.direct_ns_per_query = BestNs(direct_pass, &sink) / count;
    serving.healthy_ns_per_query = BestNs(manager_pass, &sink) / count;

    // Push the column into stale-while-error: every page read now fails,
    // so the forced rebuild is absorbed and the old snapshot keeps
    // serving with the breaker/health bookkeeping populated. The injector
    // stays attached during the timing — the serving path must not touch
    // storage at all.
    manager.RecordModifications(column, mgr_n);
    FaultSpec spec;
    spec.lost_probability = 1.0;
    FaultInjector injector(spec);
    dataset.table.set_fault_injector(&injector);
    const auto refreshed = manager.EnsureFresh(column, dataset.table);
    const ColumnHealthReport health = manager.Health(column);
    serving.degradation_established = refreshed.ok() &&
                                      health.health == ColumnHealth::kStale &&
                                      health.total_build_failures > 0;
    const std::uint64_t reads_before =
        injector.lost_injected() + injector.transient_injected();
    const double degraded_sum = manager_pass();
    serving.degraded_ns_per_query = BestNs(manager_pass, &sink) / count;
    const std::uint64_t reads_after =
        injector.lost_injected() + injector.transient_injected();
    dataset.table.set_fault_injector(nullptr);

    serving.estimates_identical =
        direct_sum == healthy_sum && healthy_sum == degraded_sum;
    serving.healthy_overhead_vs_direct =
        serving.direct_ns_per_query > 0.0
            ? serving.healthy_ns_per_query / serving.direct_ns_per_query
            : 0.0;
    serving.degraded_vs_healthy =
        serving.healthy_ns_per_query > 0.0
            ? serving.degraded_ns_per_query / serving.healthy_ns_per_query
            : 0.0;
    if (!serving.estimates_identical) {
      std::cerr << "ERROR: manager serving sums diverge: direct="
                << direct_sum << " healthy=" << healthy_sum
                << " degraded=" << degraded_sum << "\n";
      all_verified = false;
    }
    if (!serving.degradation_established) {
      std::cerr << "ERROR: stale-while-error state was not established\n";
      all_verified = false;
    }
    if (reads_after != reads_before) {
      std::cerr << "ERROR: degraded serving issued "
                << (reads_after - reads_before) << " storage reads\n";
      all_verified = false;
    }
    std::cerr << "  manager serving: direct=" << serving.direct_ns_per_query
              << " ns/q, healthy=" << serving.healthy_ns_per_query
              << " ns/q (x" << serving.healthy_overhead_vs_direct
              << "), degraded=" << serving.degraded_ns_per_query << " ns/q (x"
              << serving.degraded_vs_healthy << " vs healthy)\n";
  }

  const std::string json = ToJson(reports, multi_column, serving,
                                  scale.default_n, queries_per_class);
  std::cout << json;
  bench::WriteBenchJson("BENCH_estimator_throughput.json", json);
  if (sink == 42.0) std::cerr << " ";  // keep the checksum alive
  std::cerr << (all_verified
                    ? "compiled and reference estimates agree on all samples\n"
                    : "ERROR: compiled/reference estimate mismatch\n");
  return all_verified ? 0 : 1;
}
