// FLEET1: fleet serving under mixed traffic (DESIGN.md §16). Worker
// threads fire multi-column estimate batches at a StatisticsFleet while a
// DML thread records modifications and schedules async rebuilds through
// the BuildScheduler — the steady state of a server with auto-statistics
// on. Sweeps the shard count (1 vs N) and reports per-shard-count:
//
//   qps               client batches served per second (all workers)
//   p99_us            99th-percentile client batch latency
//
// Two guards make the bench fail loudly instead of rotting:
//   - every fleet estimate is cross-checked bitwise against a single
//     StatisticsManager with the same seed (the fleet determinism
//     contract) before any timing starts;
//   - the scalar serving path through a fleet must stay within a generous
//     factor of the raw manager path (the metrics plane and shard routing
//     must not tax EstimateRange) — enforced in every mode including
//     --smoke, which is how CI runs it.
//
// A transport section (DESIGN.md §17) additionally times one estimate
// frame's round trip through the in-process Transport and through a real
// unix-domain SocketTransport against a SocketTransportServer — the
// envelope + framing + syscall cost per exchange. Both paths are
// cross-checked bitwise against ServeFrame before timing, and the medians
// are gated by scripts/check_perf_regression.py. Each median is the median
// of several fresh series' medians: kInProcessSeries in-process transports
// and kSocketPairs server/connection pairs.
//
// Emits BENCH_fleet_serving.json (mirrored to stdout).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "stats/fleet_wire.h"
#include "stats/statistics_fleet.h"
#include "stats/statistics_manager.h"
#include "stats/transport.h"

namespace {

using namespace equihist;

constexpr std::uint64_t kShardSweep[] = {1, 2, 4};
constexpr int kWorkers = 4;
constexpr std::size_t kBatchSize = 16;
// A socket round trip costs about twice as much when the server's reader
// thread runs on another CPU than the client as when both share one (a
// cross-CPU wake-up against two context switches on one core), and where
// the scheduler puts a connection's reader mostly holds for the
// connection's life. One pair's median therefore reads either level from
// run to run; the median over several fresh pairs reads the common one.
constexpr int kSocketPairs = 5;
// One series of in-process round trips measures the host's state while it
// runs as much as the code: five series in one process read medians of
// 2.5, 3.8, 4.1, 4.2 and 4.2 us. The median over several fresh series
// reads the common level, as for the socket pairs.
constexpr int kInProcessSeries = 5;
// Repetitions of the scalar-serving lanes; the guard reads the median of
// their per-repetition ratios.
constexpr int kScalarRepetitions = 9;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double ElapsedNs(const std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count();
}

StatisticsShard::Options ShardOptions(const bench::Scale& scale) {
  StatisticsShard::Options options;
  options.buckets = scale.k;
  options.f = 0.2;
  options.seed = 1998;
  options.threads = 1;
  return options;
}

std::vector<std::string> Columns(std::size_t n) {
  std::vector<std::string> columns;
  columns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    columns.push_back("t.c" + std::to_string(i));
  }
  return columns;
}

// One worker's rotating multi-column batch (distinct rotations per worker,
// so concurrent workers send genuinely different requests).
std::vector<BatchEstimateRequest> WorkerBatch(
    const std::vector<std::string>& columns, std::uint64_t domain,
    int worker) {
  std::vector<BatchEstimateRequest> requests;
  requests.reserve(kBatchSize);
  for (std::size_t i = 0; i < kBatchSize; ++i) {
    const std::string& column =
        columns[(i + static_cast<std::size_t>(worker)) % columns.size()];
    const auto lo = static_cast<Value>((i * domain) / (kBatchSize * 2));
    requests.push_back(
        {column, {lo, lo + static_cast<Value>(domain / 4)}});
  }
  return requests;
}

struct SweepRow {
  std::uint64_t shards = 0;
  double elapsed_ms = 0.0;
  std::uint64_t batches = 0;
  double qps = 0.0;
  double p99_us = 0.0;
  std::uint64_t scheduled_builds = 0;
};

// Medians over kScalarRepetitions repetitions of the three lanes; the
// ratios are medians of per-repetition ratios, not ratios of medians.
struct ScalarGuard {
  std::uint64_t queries = 0;  // per lane and repetition
  double manager_ns_per_query = 0.0;
  // A 1-shard fleet: identical serving path + metrics plane, no routing
  // hash. This isolates the metrics cost — the guarded number.
  double fleet_1shard_ns_per_query = 0.0;
  double overhead_ratio = 0.0;
  // A 4-shard fleet: adds the FNV-1a route per call. Reported (and
  // loosely bounded) so routing-cost regressions still surface.
  double fleet_4shard_ns_per_query = 0.0;
  double routed_ratio = 0.0;
};

// Round-trip latency of one estimate frame through a Transport
// (DESIGN.md §17): envelope encode + serve + envelope decode, plus the
// syscalls on the socket path. Gated by check_perf_regression.py.
struct TransportStats {
  std::uint64_t round_trips = 0;  // per series
  // Medians over kInProcessSeries transports, and over kSocketPairs
  // server/connection pairs, of each series' median and p99.
  double in_process_median_us = 0.0;
  double in_process_p99_us = 0.0;
  double unix_socket_median_us = 0.0;
  double unix_socket_p99_us = 0.0;
  // socket median / in-process median: what the wire itself costs.
  double socket_overhead_ratio = 0.0;
};

// Times `rounds` fault-free round trips, checking every response bitwise
// against the direct ServeFrame bytes. Returns {median_us, p99_us} or
// {-1, -1} on any mismatch or transport error.
std::pair<double, double> TimeRoundTrips(
    transport::Transport& link, std::span<const std::uint8_t> frame,
    const std::vector<std::uint8_t>& expected, int rounds) {
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto response = link.RoundTrip(frame, 1'000'000);
    const double us = ElapsedNs(t0) / 1e3;
    if (!response.ok() || *response != expected) return {-1.0, -1.0};
    if (r >= rounds / 10) lat_us.push_back(us);  // first 10% is warmup
  }
  std::sort(lat_us.begin(), lat_us.end());
  const double median = lat_us[lat_us.size() / 2];
  const double p99 =
      lat_us[std::min(lat_us.size() - 1,
                      static_cast<std::size_t>(
                          0.99 * static_cast<double>(lat_us.size())))];
  return {median, p99};
}

// The medians of the series' {median_us, p99_us}, and the sorted series
// medians for the log; {-1, -1} if any series mismatched.
std::pair<double, double> MedianOfSeries(
    const std::vector<std::pair<double, double>>& series,
    std::vector<double>& medians) {
  std::vector<double> p99s;
  medians.clear();
  for (const auto& [median, p99] : series) {
    medians.push_back(median);
    p99s.push_back(p99);
  }
  std::sort(medians.begin(), medians.end());
  std::sort(p99s.begin(), p99s.end());
  if (medians.front() < 0.0) return {-1.0, -1.0};
  return {medians[medians.size() / 2], p99s[p99s.size() / 2]};
}

std::string ToJson(const std::vector<SweepRow>& rows,
                   const ScalarGuard& guard, const TransportStats& transit,
                   std::uint64_t n, std::size_t columns,
                   const bench::Scale& scale) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"experiment\": \"FLEET1\",\n";
  os << "  \"bench\": \"fleet_serving\",\n";
  os << "  \"title\": \"fleet serving: mixed traffic, 1 vs N shards\",\n";
  os << "  \"n\": " << n << ",\n";
  os << "  \"columns\": " << columns << ",\n";
  os << "  \"batch_size\": " << kBatchSize << ",\n";
  os << "  \"workers\": " << kWorkers << ",\n";
  os << "  \"scale\": \""
     << (scale.smoke ? "smoke" : (scale.full ? "full" : "fast")) << "\",\n";
  os << "  \"host\": " << bench::HostJson() << ",\n";
  os << "  \"shard_sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    os << "    {\"shards\": " << row.shards << ", \"qps\": " << row.qps
       << ", \"p99_us\": " << row.p99_us
       << ", \"batches\": " << row.batches
       << ", \"scheduled_builds\": " << row.scheduled_builds << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"scalar_serving\": {\"queries\": " << guard.queries
     << ", \"repetitions\": " << kScalarRepetitions
     << ", \"manager_ns_per_query\": " << guard.manager_ns_per_query
     << ", \"fleet_1shard_ns_per_query\": " << guard.fleet_1shard_ns_per_query
     << ", \"overhead_ratio\": " << guard.overhead_ratio
     << ", \"fleet_4shard_ns_per_query\": " << guard.fleet_4shard_ns_per_query
     << ", \"routed_ratio\": " << guard.routed_ratio << "},\n";
  os << "  \"transport\": {\"round_trips\": " << transit.round_trips
     << ", \"in_process_series\": " << kInProcessSeries
     << ", \"socket_pairs\": " << kSocketPairs
     << ", \"in_process_median_us\": " << transit.in_process_median_us
     << ", \"in_process_p99_us\": " << transit.in_process_p99_us
     << ", \"unix_socket_median_us\": " << transit.unix_socket_median_us
     << ", \"unix_socket_p99_us\": " << transit.unix_socket_p99_us
     << ", \"socket_overhead_ratio\": " << transit.socket_overhead_ratio
     << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::GetScale(argc, argv);
  bench::PrintBanner("FLEET1", "fleet serving: mixed traffic, 1 vs N shards",
                     scale);
  const std::uint64_t n = scale.smoke ? 20000 : 200000;
  const int rounds = scale.smoke ? 20 : 200;
  const auto dataset =
      bench::MakeZipfDataset(n, 1.2, LayoutKind::kRandom, 64, 1998);
  const std::uint64_t domain = scale.DomainFor(n);
  const auto columns = Columns(8);

  // Ground truth: one manager, same options/seed. The fleet must serve
  // bitwise these answers at every shard count.
  StatisticsManager manager(ShardOptions(scale));
  if (!manager.BuildAll(columns, dataset.table).ok()) {
    std::cerr << "manager BuildAll failed\n";
    return 1;
  }
  std::vector<BatchEstimateResult> expected(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    const auto requests = WorkerBatch(columns, domain, w);
    if (!manager.EstimateBatch(dataset.table, requests, &expected[w]).ok()) {
      std::cerr << "manager EstimateBatch failed\n";
      return 1;
    }
  }

  std::vector<SweepRow> rows;
  for (const std::uint64_t shards : kShardSweep) {
    StatisticsFleet fleet({.shards = shards,
                           .shard = ShardOptions(scale),
                           .scheduler = {.max_inflight = 1, .threads = 2}});
    if (!fleet.BuildAll(columns, dataset.table).ok()) {
      std::cerr << "fleet BuildAll failed (shards=" << shards << ")\n";
      return 1;
    }
    // Bitwise cross-check before timing.
    for (int w = 0; w < kWorkers; ++w) {
      BatchEstimateResult got;
      const auto requests = WorkerBatch(columns, domain, w);
      if (!fleet.EstimateBatch(dataset.table, requests, &got).ok() ||
          got.estimates != expected[w].estimates) {
        std::cerr << "FLEET MISMATCH vs manager at shards=" << shards << "\n";
        return 1;
      }
    }

    std::atomic<bool> failed{false};
    std::atomic<std::uint64_t> batches{0};
    std::vector<std::vector<double>> latencies_us(kWorkers);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w]() {
        const auto requests = WorkerBatch(columns, domain, w);
        latencies_us[w].reserve(static_cast<std::size_t>(rounds));
        for (int r = 0; r < rounds && !failed.load(); ++r) {
          BatchEstimateResult result;
          const auto t0 = std::chrono::steady_clock::now();
          if (!fleet.EstimateBatch(dataset.table, requests, &result).ok() ||
              result.estimates != expected[w].estimates) {
            failed.store(true);
            return;
          }
          latencies_us[w].push_back(ElapsedNs(t0) / 1e3);
          batches.fetch_add(1);
        }
      });
    }
    // The DML/build-pressure thread: modifications trickle in and async
    // rebuilds get scheduled — admission-controlled, so serving stays up.
    std::uint64_t scheduled = 0;
    std::thread churn([&]() {
      for (int r = 0; r < rounds / 2; ++r) {
        const std::string& column = columns[r % columns.size()];
        fleet.RecordModifications(column, n / 100);
        fleet.ScheduleBuild("t", column, dataset.table);
        ++scheduled;
      }
    });
    for (auto& worker : workers) worker.join();
    churn.join();
    const double elapsed_ms = ElapsedNs(start) / 1e6;
    fleet.DrainBuilds();
    if (failed.load()) {
      std::cerr << "FLEET MISMATCH during mixed traffic at shards=" << shards
                << "\n";
      return 1;
    }

    std::vector<double> all;
    for (const auto& lane : latencies_us) {
      all.insert(all.end(), lane.begin(), lane.end());
    }
    std::sort(all.begin(), all.end());
    SweepRow row;
    row.shards = shards;
    row.elapsed_ms = elapsed_ms;
    row.batches = batches.load();
    row.qps = elapsed_ms > 0.0
                  ? static_cast<double>(row.batches) * 1e3 / elapsed_ms
                  : 0.0;
    row.p99_us =
        all.empty() ? 0.0
                    : all[std::min(all.size() - 1,
                                   static_cast<std::size_t>(
                                       0.99 * static_cast<double>(all.size())))];
    row.scheduled_builds = scheduled;
    rows.push_back(row);
    std::cerr << "shards=" << shards << " qps=" << row.qps
              << " p99_us=" << row.p99_us << "\n";
  }

  // Scalar serving guard: fleet routing + metrics must not tax
  // EstimateRange. The three lanes run back to back in each of
  // kScalarRepetitions repetitions, in alternating order, and each ratio
  // is the median of the per-repetition ratios: the host's speed moves
  // between repetitions more than within one, and pairing each lane's
  // best repetition read 1.61x on unchanged code.
  ScalarGuard guard;
  {
    StatisticsFleet fleet1({.shards = 1, .shard = ShardOptions(scale)});
    StatisticsFleet fleet4({.shards = 4, .shard = ShardOptions(scale)});
    if (!fleet1.BuildAll(columns, dataset.table).ok()) return 1;
    if (!fleet4.BuildAll(columns, dataset.table).ok()) return 1;
    const std::uint64_t queries = scale.smoke ? 20000 : 200000;
    guard.queries = queries;
    const RangeQuery query{0, static_cast<Value>(domain / 2)};
    // Each lane times in a FRESH thread: the lock-free serving cache is
    // per-thread and scanned linearly, so a shared thread would hand the
    // first lane a short scan and every later lane a longer one — the
    // comparison would measure cache pollution, not the serving path.
    const auto time_lane = [&](auto&& estimate) {
      double ns = 0.0;
      double sum = 0.0;
      std::thread lane([&]() {
        for (const std::string& c : columns) {  // warm the thread's cache
          (void)estimate(c);
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t q = 0; q < queries; ++q) {
          sum += estimate(columns[q % columns.size()]);
        }
        ns = ElapsedNs(t0) / static_cast<double>(queries);
      });
      lane.join();
      return std::pair<double, double>(ns, sum);
    };
    const auto manager_lane = [&](const std::string& c) {
      return *manager.EstimateRange(c, dataset.table, query);
    };
    const auto fleet1_lane = [&](const std::string& c) {
      return *fleet1.EstimateRange(c, dataset.table, query);
    };
    const auto fleet4_lane = [&](const std::string& c) {
      return *fleet4.EstimateRange(c, dataset.table, query);
    };
    std::vector<double> manager_ns;
    std::vector<double> fleet1_ns;
    std::vector<double> fleet4_ns;
    std::vector<double> overhead;
    std::vector<double> routed;
    for (int rep = 0; rep < kScalarRepetitions; ++rep) {
      std::pair<double, double> m;
      std::pair<double, double> f1;
      std::pair<double, double> f4;
      if (rep % 2 == 0) {
        m = time_lane(manager_lane);
        f1 = time_lane(fleet1_lane);
        f4 = time_lane(fleet4_lane);
      } else {
        f4 = time_lane(fleet4_lane);
        f1 = time_lane(fleet1_lane);
        m = time_lane(manager_lane);
      }
      if (f1.second != m.second || f4.second != m.second) {
        std::cerr << "FLEET MISMATCH on scalar serving path\n";
        return 1;
      }
      manager_ns.push_back(m.first);
      fleet1_ns.push_back(f1.first);
      fleet4_ns.push_back(f4.first);
      overhead.push_back(m.first > 0.0 ? f1.first / m.first : 0.0);
      routed.push_back(m.first > 0.0 ? f4.first / m.first : 0.0);
    }
    guard.manager_ns_per_query = Median(manager_ns);
    guard.fleet_1shard_ns_per_query = Median(fleet1_ns);
    guard.overhead_ratio = Median(overhead);
    guard.fleet_4shard_ns_per_query = Median(fleet4_ns);
    guard.routed_ratio = Median(routed);
    std::cerr << "scalar serving (medians of " << kScalarRepetitions
              << " repetitions): manager=" << guard.manager_ns_per_query
              << " ns/q, fleet(1 shard)=" << guard.fleet_1shard_ns_per_query
              << " ns/q (ratio " << guard.overhead_ratio
              << "), fleet(4 shards)=" << guard.fleet_4shard_ns_per_query
              << " ns/q (ratio " << guard.routed_ratio << "); ratios";
    std::sort(overhead.begin(), overhead.end());
    for (const double ratio : overhead) std::cerr << ' ' << ratio;
    std::cerr << "\n";
  }

  // Transport round trips: the same estimate frame through the in-process
  // Transport and through a real unix-domain socket against a running
  // SocketTransportServer. Single-frame answers are bitwise-checked
  // against ServeFrame on every round — a framing regression fails the
  // bench, never skews it.
  TransportStats transit;
  {
    StatisticsFleet fleet({.shards = 2, .shard = ShardOptions(scale)});
    if (!fleet.BuildAll(columns, dataset.table).ok()) {
      std::cerr << "transport fleet BuildAll failed\n";
      return 1;
    }
    const std::vector<std::uint8_t> frame = fleetwire::Encode(
        fleetwire::EstimateBatchRequestFrame{WorkerBatch(columns, domain, 0)});
    const auto expected_bytes = fleet.ServeFrame(frame, dataset.table);
    if (!expected_bytes.ok()) {
      std::cerr << "ServeFrame failed: " << expected_bytes.status().ToString()
                << "\n";
      return 1;
    }
    const int rt_rounds = scale.smoke ? 300 : 3000;
    transit.round_trips = static_cast<std::uint64_t>(rt_rounds);

    std::vector<std::pair<double, double>> series;
    for (int i = 0; i < kInProcessSeries; ++i) {
      transport::InProcessTransport in_process(&fleet, &dataset.table);
      series.push_back(
          TimeRoundTrips(in_process, frame, *expected_bytes, rt_rounds));
    }
    std::vector<double> series_medians;
    std::tie(transit.in_process_median_us, transit.in_process_p99_us) =
        MedianOfSeries(series, series_medians);

    series.clear();
    for (int pair = 0; pair < kSocketPairs; ++pair) {
      transport::SocketTransportServer server(
          &fleet, &dataset.table,
          {.endpoint = {.kind = transport::Endpoint::Kind::kUnix,
                        .path = "/tmp/equihist_bench_" +
                                std::to_string(getpid()) + "_" +
                                std::to_string(pair) + ".sock"}});
      if (!server.Start().ok()) {
        std::cerr << "transport server failed to start\n";
        return 1;
      }
      auto socket = transport::SocketTransport::Connect(server.endpoint(),
                                                        1'000'000);
      if (!socket.ok()) {
        std::cerr << "transport connect failed: "
                  << socket.status().ToString() << "\n";
        return 1;
      }
      series.push_back(
          TimeRoundTrips(**socket, frame, *expected_bytes, rt_rounds));
    }
    std::vector<double> pair_medians;
    std::tie(transit.unix_socket_median_us, transit.unix_socket_p99_us) =
        MedianOfSeries(series, pair_medians);
    if (transit.in_process_median_us < 0.0 ||
        transit.unix_socket_median_us < 0.0) {
      std::cerr << "TRANSPORT MISMATCH vs ServeFrame bytes\n";
      return 1;
    }
    transit.socket_overhead_ratio =
        transit.in_process_median_us > 0.0
            ? transit.unix_socket_median_us / transit.in_process_median_us
            : 0.0;
    std::cerr << "transport round trip: in-process median="
              << transit.in_process_median_us
              << " us (p99=" << transit.in_process_p99_us
              << "), unix socket median=" << transit.unix_socket_median_us
              << " us (p99=" << transit.unix_socket_p99_us << ", "
              << transit.socket_overhead_ratio << "x; series medians";
    for (const double median : series_medians) std::cerr << ' ' << median;
    std::cerr << "; pair medians";
    for (const double median : pair_medians) std::cerr << ' ' << median;
    std::cerr << ")\n";
  }

  const std::string json =
      ToJson(rows, guard, transit, n, columns.size(), scale);
  std::cout << json;
  bench::WriteBenchJson("BENCH_fleet_serving.json", json);

  // Guards. The 1-shard fleet runs the byte-identical serving path plus
  // the metrics plane — "no measurable cost" means this ratio stays
  // within noise (1.5x is generous for a busy 1-core host). The 4-shard
  // ratio additionally pays the FNV-1a route (a string hash + modulo per
  // call, ~tens of ns against a ~25 ns path), bounded loosely at 4x so a
  // real routing regression still fails the bench.
  if (guard.overhead_ratio > 1.5) {
    std::cerr << "ERROR: fleet(1 shard) scalar serving is "
              << guard.overhead_ratio << "x the manager path (bound: 1.5x) — "
                 "the metrics plane is taxing the serving path\n";
    return 1;
  }
  if (guard.routed_ratio > 4.0) {
    std::cerr << "ERROR: fleet(4 shards) scalar serving is "
              << guard.routed_ratio << "x the manager path (bound: 4x)\n";
    return 1;
  }
  return 0;
}
