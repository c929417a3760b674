// Transport link-chaos suite (DESIGN.md §17): a pinned-seed fault matrix
// ({drop, delay, truncate, corrupt, duplicate, partition} x {estimate,
// build-control}) over the real socket transport, and a randomized
// mixed-fault sweep driven by EQUIHIST_CHAOS_SEED (seed printed for
// replay). The invariant under every
// fault class is degraded-but-correct: each call returns a typed Status
// within its deadline — no wedged threads — and every success is bitwise
// identical to fault-free serving. Label `transport`; CI runs this under
// TSan and ASan/UBSan with a fresh random seed.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/status.h"
#include "data/distribution.h"
#include "stats/fleet_wire.h"
#include "stats/link_fault_injection.h"
#include "stats/statistics_fleet.h"
#include "stats/transport.h"
#include "stats/transport_client.h"
#include "storage/table.h"

namespace equihist {
namespace {

using transport::Endpoint;
using transport::LinkFaultInjector;
using transport::LinkFaultSpec;
using transport::SocketTransport;
using transport::SocketTransportServer;
using transport::Transport;
using transport::TransportClient;

constexpr PageConfig kPage{8192, 64};

Table ChaosTable(std::uint64_t seed) {
  const auto freq =
      MakeZipf({.n = 30000, .domain_size = 600, .skew = 1.2, .seed = seed});
  return Table::Create(*freq, kPage,
                       {.kind = LayoutKind::kRandom, .seed = seed})
      .value();
}

StatisticsFleet::Options FleetOptions() {
  StatisticsFleet::Options options;
  options.shards = 2;
  options.shard = {.buckets = 32, .f = 0.25, .seed = 17, .threads = 1};
  return options;
}

std::string UnixSocketPath() {
  static std::atomic<int> counter{0};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/equihist_chaos_%d_%d.sock", getpid(),
                counter.fetch_add(1));
  return buf;
}

// One named single-fault configuration of the matrix.
struct FaultCase {
  const char* name;
  LinkFaultSpec spec;
};

std::vector<FaultCase> FaultMatrix(std::uint64_t seed) {
  std::vector<FaultCase> cases;
  const auto base = [seed] {
    LinkFaultSpec spec;
    spec.seed = seed;
    return spec;
  };
  {
    auto spec = base();
    spec.drop_probability = 0.3;
    cases.push_back({"drop", spec});
  }
  {
    auto spec = base();
    spec.delay_probability = 0.4;
    spec.delay_micros = 3'000;
    cases.push_back({"delay", spec});
  }
  {
    auto spec = base();
    spec.truncate_probability = 0.3;
    cases.push_back({"truncate", spec});
  }
  {
    auto spec = base();
    spec.corrupt_probability = 0.3;
    cases.push_back({"corrupt", spec});
  }
  {
    auto spec = base();
    spec.duplicate_probability = 0.4;
    cases.push_back({"duplicate", spec});
  }
  {
    auto spec = base();
    spec.partition_probability = 0.5;
    // The first connection is severed for sure: a healthy pooled link
    // would otherwise serve every call and the cell would test nothing.
    spec.partitioned_connections = {1};
    cases.push_back({"partition", spec});
  }
  return cases;
}

// Statuses a faulted transport call may legitimately return. Anything else
// (wrong code, or a hang that trips the per-call deadline assert) fails.
void ExpectTypedOutcome(const Status& status, const char* context) {
  EXPECT_TRUE(status.code() == StatusCode::kOk ||
              status.code() == StatusCode::kUnavailable ||
              status.code() == StatusCode::kDeadlineExceeded ||
              status.code() == StatusCode::kResourceExhausted)
      << context << ": " << status.ToString();
}

// Drives `calls` estimate + build-control calls through `client`,
// asserting the chaos invariant against `expected` fault-free estimates.
// Returns how many estimate calls succeeded.
int DriveCalls(TransportClient& client,
               const std::vector<BatchEstimateRequest>& requests,
               const std::vector<double>& expected, int calls,
               const char* context) {
  int successes = 0;
  for (int i = 0; i < calls; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto estimates = client.EstimateBatch(requests, 400'000);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    // Deadline discipline: the call returned within its budget plus
    // scheduling slack — a wedge would blow far past this.
    EXPECT_LT(elapsed.count(), 3'000) << context << " call " << i;
    if (estimates.ok()) {
      ++successes;
      EXPECT_EQ(estimates->size(), expected.size()) << context;
      if (estimates->size() == expected.size()) {
        for (std::size_t j = 0; j < expected.size(); ++j) {
          // Degraded-but-CORRECT: a success is bitwise the fault-free
          // answer, never a half-served or corrupted one.
          EXPECT_EQ((*estimates)[j], expected[j])
              << context << " call " << i << " estimate " << j;
        }
      }
    } else {
      ExpectTypedOutcome(estimates.status(), context);
    }
    // Build-control rides the same link without retries or hedges.
    const Status build = client.BuildControl(fleetwire::BuildOp::kEnsureFresh,
                                             "t.a", 0, 400'000);
    ExpectTypedOutcome(build, context);
  }
  return successes;
}

TransportClient::Options ChaosClientOptions(std::uint64_t seed) {
  TransportClient::Options options;
  options.retry = {.max_attempts = 4, .base_backoff_micros = 500};
  options.jitter_seed = seed;
  options.attempt_timeout_micros = 60'000;  // drop/truncate cost 60ms, not
                                            // the whole call budget
  return options;
}

TEST(TransportChaosTest, PinnedSeedFaultMatrixOverSocket) {
  constexpr std::uint64_t kSeed = 0xC0FFEE2026ULL;
  Table table = ChaosTable(kSeed & 0xFFFF);
  StatisticsFleet fleet(FleetOptions());
  ASSERT_TRUE(fleet.BuildAll({"t.a", "t.b"}, table).ok());

  const std::vector<BatchEstimateRequest> requests{
      {"t.a", {10, 200}}, {"t.b", {50, 400}}, {"t.a", {0, 600}}};
  BatchEstimateResult direct;
  ASSERT_TRUE(fleet.EstimateBatch(table, requests, &direct).ok());

  for (const FaultCase& fault : FaultMatrix(kSeed)) {
    SCOPED_TRACE(fault.name);
    LinkFaultInjector injector(fault.spec);

    SocketTransportServer::Options server_options;
    server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
    // Server-side chaos only mangles the receive/serve legs it owns; the
    // client injector handles the send leg — sharing one injector keeps
    // the decision stream consistent across both ends.
    server_options.injector = &injector;
    SocketTransportServer server(&fleet, &table, server_options);
    ASSERT_TRUE(server.Start().ok());

    TransportClient client(ChaosClientOptions(kSeed));
    std::atomic<std::uint64_t> next_connection{1};
    client.AddPeer({"chaos", [&](std::uint64_t budget)
                                 -> Result<std::unique_ptr<Transport>> {
                      EQUIHIST_ASSIGN_OR_RETURN(
                          std::unique_ptr<SocketTransport> conn,
                          SocketTransport::Connect(
                              server.endpoint(), budget, &injector,
                              next_connection.fetch_add(1)));
                      return std::unique_ptr<Transport>(std::move(conn));
                    }});

    DriveCalls(client, requests, direct.estimates, 10, fault.name);
    server.Stop();
    // The fault class actually fired (the matrix is not vacuous).
    EXPECT_GT(injector.total_injected(), 0u) << fault.name;
  }
}

TEST(TransportChaosTest, RandomizedMixedFaultSweepPrintsItsSeed) {
  // CI drives this with a randomized EQUIHIST_CHAOS_SEED; the seed is
  // always printed so any failure can be replayed exactly.
  std::uint64_t seed = 0x5EED2026;
  if (const char* env = std::getenv("EQUIHIST_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::cout << "[chaos] EQUIHIST_CHAOS_SEED=" << seed << std::endl;
  SCOPED_TRACE("EQUIHIST_CHAOS_SEED=" + std::to_string(seed));

  Table table = ChaosTable(seed ^ 0x9E3779B9);
  StatisticsFleet fleet(FleetOptions());
  ASSERT_TRUE(fleet.BuildAll({"t.a", "t.b"}, table).ok());

  const std::vector<BatchEstimateRequest> requests{
      {"t.a", {10, 200}}, {"t.b", {50, 400}}, {"t.a", {0, 600}}};
  BatchEstimateResult direct;
  ASSERT_TRUE(fleet.EstimateBatch(table, requests, &direct).ok());

  // Every fault class at once, at lower rates: the mixed storm a real
  // flaky network produces.
  LinkFaultSpec spec;
  spec.seed = seed;
  spec.drop_probability = 0.08;
  spec.delay_probability = 0.15;
  spec.delay_micros = 2'000;
  spec.truncate_probability = 0.08;
  spec.corrupt_probability = 0.10;
  spec.duplicate_probability = 0.10;
  spec.partition_probability = 0.15;
  LinkFaultInjector injector(spec);

  metrics::MetricsPlane plane;
  SocketTransportServer::Options server_options;
  server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
  server_options.injector = &injector;
  server_options.metrics = &plane;
  SocketTransportServer server(&fleet, &table, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto client_options = ChaosClientOptions(seed);
  client_options.metrics = &plane;
  TransportClient client(client_options);
  std::atomic<std::uint64_t> next_connection{1};
  client.AddPeer({"storm", [&](std::uint64_t budget)
                               -> Result<std::unique_ptr<Transport>> {
                    EQUIHIST_ASSIGN_OR_RETURN(
                        std::unique_ptr<SocketTransport> conn,
                        SocketTransport::Connect(server.endpoint(), budget,
                                                 &injector,
                                                 next_connection.fetch_add(1)));
                    return std::unique_ptr<Transport>(std::move(conn));
                  }});

  DriveCalls(client, requests, direct.estimates, 15, "mixed storm");
  server.Stop();
  EXPECT_GT(injector.total_injected(), 0u);
  // The resilience counters and the injector agree that chaos happened,
  // and the metrics JSON carries the whole story.
  const std::string json = plane.ToJson();
  EXPECT_NE(json.find("\"transport_requests\":"), std::string::npos);
  EXPECT_NE(json.find("\"transport_retries\":"), std::string::npos);
  EXPECT_NE(json.find("\"transport_breaker_opens\":"), std::string::npos);
}

}  // namespace
}  // namespace equihist
