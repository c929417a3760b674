// Fleet transport tests (DESIGN.md §17): bitwise parity of the in-process
// and socket paths with ServeFrame, the envelope checksum, server-side
// load shedding with typed kResourceExhausted rejections, client retries
// with jittered backoff, per-peer circuit breakers, hedged reads, deadline
// propagation (a slow server handler costs no retry), budgets too large to
// add to the clock, and the server's cap on frames served at once. Runs
// under TSan and ASan/UBSan in CI (label `transport`).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
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
using transport::InProcessTransport;
using transport::LinkDirection;
using transport::LinkFaultInjector;
using transport::LinkFaultKind;
using transport::LinkFaultSpec;
using transport::LinkFaultTrigger;
using transport::SocketTransport;
using transport::SocketTransportServer;
using transport::Transport;
using transport::TransportClient;

constexpr PageConfig kPage{8192, 64};

Table SmallTable(std::uint64_t n = 40000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.2, .seed = seed});
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

std::vector<BatchEstimateRequest> EstimateRequests(const Table& table) {
  std::vector<BatchEstimateRequest> requests;
  const auto domain = static_cast<Value>(table.tuple_count() / 50);
  for (std::size_t q = 0; q < 6; ++q) {
    const Value lo = static_cast<Value>(q) * domain / 8;
    requests.push_back({q % 2 == 0 ? "t.a" : "t.b", {lo, lo + domain / 4}});
  }
  return requests;
}

// A per-test unix socket path (pid + counter keep parallel tests apart).
std::string UnixSocketPath() {
  static std::atomic<int> counter{0};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/equihist_tr_%d_%d.sock", getpid(),
                counter.fetch_add(1));
  return buf;
}

// Builds "t.a"/"t.b" and returns the fleet ready to serve.
void BuildFleet(StatisticsFleet& fleet, const Table& table) {
  const auto result = fleet.BuildAll({"t.a", "t.b"}, table);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// -- Bitwise parity -----------------------------------------------------------

TEST(TransportTest, InProcessAndSocketMatchServeFrameBitwise) {
  Table table = SmallTable();
  StatisticsFleet fleet(FleetOptions());
  BuildFleet(fleet, table);

  const auto estimate_frame =
      fleetwire::Encode(fleetwire::EstimateBatchRequestFrame{
          EstimateRequests(table)});
  fleetwire::BuildControlRequestFrame build;
  build.op = fleetwire::BuildOp::kEnsureFresh;
  build.column = "t.a";
  const auto build_frame = fleetwire::Encode(build);

  const auto expected_estimate = fleet.ServeFrame(estimate_frame, table);
  const auto expected_build = fleet.ServeFrame(build_frame, table);
  ASSERT_TRUE(expected_estimate.ok());
  ASSERT_TRUE(expected_build.ok());

  // Serve the same frames through every transport; bytes must be
  // identical to the direct ServeFrame call.
  const auto check = [&](Transport& via, const char* label) {
    const auto estimate = via.RoundTrip(estimate_frame, 5'000'000);
    ASSERT_TRUE(estimate.ok()) << label << ": " << estimate.status().ToString();
    EXPECT_EQ(*estimate, *expected_estimate) << label;
    const auto built = via.RoundTrip(build_frame, 5'000'000);
    ASSERT_TRUE(built.ok()) << label << ": " << built.status().ToString();
    EXPECT_EQ(*built, *expected_build) << label;
    // Metrics responses carry live counters, so only the shape is stable.
    const auto metrics_reply =
        via.RoundTrip(fleetwire::EncodeMetricsRequest(), 5'000'000);
    ASSERT_TRUE(metrics_reply.ok()) << label;
    const auto decoded = fleetwire::DecodeMetricsResponse(*metrics_reply);
    ASSERT_TRUE(decoded.ok()) << label;
    EXPECT_NE(decoded->json.find("fleet"), std::string::npos) << label;
  };

  InProcessTransport in_process(&fleet, &table);
  check(in_process, "in-process");

  {
    SocketTransportServer::Options server_options;
    server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
    SocketTransportServer server(&fleet, &table, server_options);
    ASSERT_TRUE(server.Start().ok());
    auto conn = SocketTransport::Connect(server.endpoint(), 2'000'000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    check(**conn, "unix socket");
    server.Stop();
  }
  {
    SocketTransportServer::Options server_options;
    server_options.endpoint = {Endpoint::Kind::kTcp, "", 0};  // ephemeral
    SocketTransportServer server(&fleet, &table, server_options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.endpoint().port, 0);
    auto conn = SocketTransport::Connect(server.endpoint(), 2'000'000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    check(**conn, "tcp socket");
    server.Stop();
  }
}

// -- Typed client wrappers over a real socket ---------------------------------

TEST(TransportTest, TypedClientWrappersOverUnixSocket) {
  Table table = SmallTable();
  StatisticsFleet fleet(FleetOptions());
  BuildFleet(fleet, table);

  SocketTransportServer::Options server_options;
  server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
  SocketTransportServer server(&fleet, &table, server_options);
  ASSERT_TRUE(server.Start().ok());

  metrics::MetricsPlane plane;
  TransportClient::Options client_options;
  client_options.metrics = &plane;
  TransportClient client(client_options);
  std::atomic<std::uint64_t> next_connection{1};
  client.AddPeer({"local", [&](std::uint64_t budget)
                               -> Result<std::unique_ptr<Transport>> {
                    EQUIHIST_ASSIGN_OR_RETURN(
                        std::unique_ptr<SocketTransport> conn,
                        SocketTransport::Connect(server.endpoint(), budget,
                                                 nullptr,
                                                 next_connection.fetch_add(1)));
                    return std::unique_ptr<Transport>(std::move(conn));
                  }});

  const auto requests = EstimateRequests(table);
  BatchEstimateResult direct;
  ASSERT_TRUE(fleet.EstimateBatch(table, requests, &direct).ok());

  const auto estimates = client.EstimateBatch(requests, 5'000'000);
  ASSERT_TRUE(estimates.ok()) << estimates.status().ToString();
  ASSERT_EQ(estimates->size(), direct.estimates.size());
  for (std::size_t i = 0; i < direct.estimates.size(); ++i) {
    EXPECT_EQ((*estimates)[i], direct.estimates[i]) << i;  // bitwise
  }

  EXPECT_TRUE(client
                  .BuildControl(fleetwire::BuildOp::kEnsureFresh, "t.a",
                                /*count=*/0, 5'000'000)
                  .ok());
  const auto json = client.FetchMetricsJson(5'000'000);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("fleet"), std::string::npos);

  EXPECT_EQ(plane.counter(metrics::Counter::kTransportRequests), 3u);
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportErrors), 0u);
  EXPECT_EQ(plane.hist_count(metrics::Hist::kTransportRoundTripMicros), 3u);
  server.Stop();
}

// -- Load shedding ------------------------------------------------------------

TEST(TransportTest, OverloadedServerShedsWithTypedRejection) {
  Table table = SmallTable();
  StatisticsFleet fleet(FleetOptions());
  BuildFleet(fleet, table);

  // Every serve stalls 400ms (kServe delay on frame 0 of every
  // connection), one worker, a 2-deep queue: flooding 6 one-shot
  // connections must shed some of them with kResourceExhausted.
  LinkFaultSpec spec;
  spec.delay_micros = 400'000;
  spec.triggers.push_back({transport::kAnyConnection, 0, LinkDirection::kServe,
                           LinkFaultKind::kDelay});
  LinkFaultInjector injector(spec);

  metrics::MetricsPlane plane;
  SocketTransportServer::Options server_options;
  server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
  server_options.workers = 1;
  server_options.queue_capacity = 2;
  server_options.injector = &injector;
  server_options.metrics = &plane;
  SocketTransportServer server(&fleet, &table, server_options);
  ASSERT_TRUE(server.Start().ok());

  const auto frame = fleetwire::Encode(
      fleetwire::EstimateBatchRequestFrame{EstimateRequests(table)});

  constexpr int kClients = 6;
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      auto conn = SocketTransport::Connect(server.endpoint(), 2'000'000);
      ASSERT_TRUE(conn.ok()) << conn.status().ToString();
      const auto reply = (*conn)->RoundTrip(frame, 5'000'000);
      if (!reply.ok()) {
        ++other;
        return;
      }
      const auto type = fleetwire::PeekType(*reply);
      ASSERT_TRUE(type.ok());
      if (*type == fleetwire::FrameType::kRejection) {
        const auto rejection = fleetwire::DecodeRejection(*reply);
        ASSERT_TRUE(rejection.ok());
        EXPECT_EQ(rejection->code, StatusCode::kResourceExhausted);
        ++shed;
      } else {
        EXPECT_EQ(*type, fleetwire::FrameType::kEstimateBatchResponse);
        ++served;
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(served + shed + other, kClients);
  EXPECT_GE(served.load(), 1);
  EXPECT_GE(shed.load(), 1);
  EXPECT_EQ(other.load(), 0);
  // The shed drops are visible in the server's metrics JSON.
  EXPECT_EQ(plane.counter(metrics::Counter::kServerShedDrops),
            static_cast<std::uint64_t>(shed.load()));
  EXPECT_NE(plane.ToJson().find("\"server_shed_drops\":"), std::string::npos);
}

// -- Serving cap --------------------------------------------------------------

TEST(TransportTest, FramesBeyondTheServingCapQueueForASlotHolder) {
  Table table = SmallTable();
  StatisticsFleet fleet(FleetOptions());
  BuildFleet(fleet, table);

  // Two serving slots, three connections whose first frame stalls 200ms:
  // two readers serve their own frames at once, the third frame queues
  // and is served by whichever slot holder replies first.
  constexpr std::uint64_t kDelayMicros = 200'000;
  LinkFaultSpec spec;
  spec.delay_micros = kDelayMicros;
  spec.triggers.push_back({transport::kAnyConnection, 0, LinkDirection::kServe,
                           LinkFaultKind::kDelay});
  LinkFaultInjector injector(spec);

  metrics::MetricsPlane plane;
  SocketTransportServer::Options server_options;
  server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
  server_options.workers = 2;
  server_options.injector = &injector;
  server_options.metrics = &plane;
  SocketTransportServer server(&fleet, &table, server_options);
  ASSERT_TRUE(server.Start().ok());

  const auto frame = fleetwire::Encode(
      fleetwire::EstimateBatchRequestFrame{EstimateRequests(table)});
  const auto expected = fleet.ServeFrame(frame, table);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 3;
  std::vector<std::unique_ptr<SocketTransport>> connections;
  for (int i = 0; i < kClients; ++i) {
    auto conn = SocketTransport::Connect(server.endpoint(), 2'000'000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    connections.push_back(std::move(conn).value());
  }
  std::vector<double> elapsed_ms(kClients, 0.0);
  std::atomic<int> mismatches{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const auto reply = connections[i]->RoundTrip(frame, 5'000'000);
      elapsed_ms[i] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      if (!reply.ok() || *reply != *expected) mismatches.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(mismatches.load(), 0);
  std::sort(elapsed_ms.begin(), elapsed_ms.end());
  const double delay_ms = static_cast<double>(kDelayMicros) / 1000.0;
  // Two replies after about one delay...
  EXPECT_GE(elapsed_ms[0], delay_ms);
  EXPECT_LT(elapsed_ms[1], 2 * delay_ms);
  // ...and the queued one after two: its serve starts only once a slot
  // holder has replied to its own stalled frame.
  EXPECT_GE(elapsed_ms[2], 2 * delay_ms);
  EXPECT_EQ(plane.hist_count(metrics::Hist::kServerQueueWaitMicros), 3u);
  // The queued frame waited out most of a slot holder's stall.
  EXPECT_GE(plane.hist_sum(metrics::Hist::kServerQueueWaitMicros),
            kDelayMicros / 2);
  EXPECT_EQ(plane.counter(metrics::Counter::kServerShedDrops), 0u);
  EXPECT_EQ(plane.counter(metrics::Counter::kServerFramesServed), 3u);
}

// -- Client resilience over fake transports -----------------------------------

// A scriptable Transport: returns the queued results in order, repeating
// the last one; counts round-trips; optional per-call stall.
class FakeTransport final : public Transport {
 public:
  explicit FakeTransport(std::vector<Result<std::vector<std::uint8_t>>> script,
                         std::uint64_t stall_micros = 0,
                         std::atomic<int>* calls = nullptr)
      : script_(std::move(script)), stall_micros_(stall_micros),
        calls_(calls) {}

  Result<std::vector<std::uint8_t>> RoundTrip(
      std::span<const std::uint8_t>, std::uint64_t budget_micros) override {
    if (calls_ != nullptr) calls_->fetch_add(1);
    if (stall_micros_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min(stall_micros_, budget_micros)));
      if (stall_micros_ >= budget_micros) {
        return Status::DeadlineExceeded("transport budget exhausted");
      }
    }
    const std::size_t index = std::min(next_++, script_.size() - 1);
    return script_[index];
  }

 private:
  std::vector<Result<std::vector<std::uint8_t>>> script_;
  std::uint64_t stall_micros_;
  std::atomic<int>* calls_;
  std::size_t next_ = 0;
};

std::vector<std::uint8_t> MetricsReply(const std::string& json) {
  return fleetwire::Encode(fleetwire::MetricsResponseFrame{json});
}

TransportClient::Peer SharedPeer(const char* name,
                                 std::shared_ptr<Transport> transport) {
  // The connect fn hands out non-owning wrappers around one shared fake,
  // so scripted state survives pooling and reconnects.
  class Wrapper final : public Transport {
   public:
    explicit Wrapper(std::shared_ptr<Transport> inner)
        : inner_(std::move(inner)) {}
    Result<std::vector<std::uint8_t>> RoundTrip(
        std::span<const std::uint8_t> frame,
        std::uint64_t budget_micros) override {
      return inner_->RoundTrip(frame, budget_micros);
    }

   private:
    std::shared_ptr<Transport> inner_;
  };
  return {name, [transport = std::move(transport)](std::uint64_t)
                    -> Result<std::unique_ptr<Transport>> {
            return std::unique_ptr<Transport>(
                std::make_unique<Wrapper>(transport));
          }};
}

TEST(TransportClientTest, RetriesTransientFailureWithBackoff) {
  metrics::MetricsPlane plane;
  auto fake = std::make_shared<FakeTransport>(
      std::vector<Result<std::vector<std::uint8_t>>>{
          Status::Unavailable("flaky link"), MetricsReply("ok")});
  TransportClient::Options options;
  options.retry = {.max_attempts = 3, .base_backoff_micros = 200};
  options.metrics = &plane;
  TransportClient client(options);
  client.AddPeer(SharedPeer("flaky", fake));

  const auto reply = client.Call(fleetwire::EncodeMetricsRequest(),
                                 /*idempotent=*/true, 2'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportRetries), 1u);
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportErrors), 0u);
}

TEST(TransportClientTest, NonIdempotentCallsAreNeverRetried) {
  metrics::MetricsPlane plane;
  auto fake = std::make_shared<FakeTransport>(
      std::vector<Result<std::vector<std::uint8_t>>>{
          Status::Unavailable("flaky link"), MetricsReply("ok")});
  TransportClient::Options options;
  options.retry = {.max_attempts = 4, .base_backoff_micros = 100};
  options.metrics = &plane;
  TransportClient client(options);
  client.AddPeer(SharedPeer("flaky", fake));

  const auto reply = client.Call(fleetwire::EncodeMetricsRequest(),
                                 /*idempotent=*/false, 2'000'000);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportRetries), 0u);
}

TEST(TransportClientTest, BackpressureRejectionIsNeverRetried) {
  metrics::MetricsPlane plane;
  auto fake = std::make_shared<FakeTransport>(
      std::vector<Result<std::vector<std::uint8_t>>>{
          fleetwire::Encode(fleetwire::RejectionFrame{
              StatusCode::kResourceExhausted, "server work queue full"}),
          MetricsReply("would have succeeded")});
  TransportClient::Options options;
  options.retry = {.max_attempts = 5, .base_backoff_micros = 100};
  options.metrics = &plane;
  TransportClient client(options);
  client.AddPeer(SharedPeer("overloaded", fake));

  const auto reply = client.Call(fleetwire::EncodeMetricsRequest(),
                                 /*idempotent=*/true, 2'000'000);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
  // Backpressure is terminal: counted, not retried.
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportBackpressure), 1u);
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportRetries), 0u);
}

TEST(TransportClientTest, RetryableRejectionFrameIsRetried) {
  metrics::MetricsPlane plane;
  auto fake = std::make_shared<FakeTransport>(
      std::vector<Result<std::vector<std::uint8_t>>>{
          fleetwire::Encode(fleetwire::RejectionFrame{
              StatusCode::kUnavailable, "transient wire damage"}),
          MetricsReply("ok")});
  TransportClient::Options options;
  options.retry = {.max_attempts = 3, .base_backoff_micros = 100};
  options.metrics = &plane;
  TransportClient client(options);
  client.AddPeer(SharedPeer("damaged", fake));

  const auto reply = client.Call(fleetwire::EncodeMetricsRequest(),
                                 /*idempotent=*/true, 2'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportRetries), 1u);
}

TEST(TransportClientTest, BreakerOpensFastFailsAndRecovers) {
  metrics::MetricsPlane plane;
  std::atomic<int> calls{0};
  auto failing = std::make_shared<FakeTransport>(
      std::vector<Result<std::vector<std::uint8_t>>>{
          Status::Unavailable("peer down"), Status::Unavailable("peer down"),
          Status::Unavailable("peer down"), MetricsReply("recovered")},
      /*stall_micros=*/0, &calls);
  std::uint64_t now = 1'000'000;
  TransportClient::Options options;
  options.retry = {.max_attempts = 1};  // isolate the breaker
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown_micros = 500'000;
  options.clock = [&now] { return now; };
  options.metrics = &plane;
  TransportClient client(options);
  client.AddPeer(SharedPeer("down", failing));

  const auto frame = fleetwire::EncodeMetricsRequest();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(client.Call(frame, true, 100'000).ok());
  }
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportBreakerOpens), 1u);
  EXPECT_EQ(calls.load(), 3);

  // Open: fast-fail without touching the transport.
  const auto rejected = client.Call(frame, true, 100'000);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportBreakerFastFails), 1u);
  EXPECT_EQ(calls.load(), 3);

  // Cooldown passes: the half-open probe goes through and closes it.
  now += 500'001;
  const auto recovered = client.Call(frame, true, 100'000);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(calls.load(), 4);
  const auto again = client.Call(frame, true, 100'000);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportBreakerOpens), 1u);
}

TEST(TransportClientTest, HedgedReadOvertakesStalledPrimary) {
  metrics::MetricsPlane plane;
  auto slow = std::make_shared<FakeTransport>(
      std::vector<Result<std::vector<std::uint8_t>>>{MetricsReply("slow")},
      /*stall_micros=*/250'000);
  auto fast = std::make_shared<FakeTransport>(
      std::vector<Result<std::vector<std::uint8_t>>>{MetricsReply("fast")});
  TransportClient::Options options;
  options.retry = {.max_attempts = 1};
  options.enable_hedging = true;
  options.hedge_initial_delay_micros = 20'000;
  options.metrics = &plane;
  TransportClient client(options);
  client.AddPeer(SharedPeer("slow", slow));
  client.AddPeer(SharedPeer("fast", fast));

  const auto reply = client.Call(fleetwire::EncodeMetricsRequest(),
                                 /*idempotent=*/true, 2'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const auto decoded = fleetwire::DecodeMetricsResponse(*reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->json, "fast");  // the hedge won
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportHedges), 1u);
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportHedgeWins), 1u);
}

// -- Deadline propagation (satellite): slow handler costs no retry ------------

TEST(TransportTest, ServerSleepingPastDeadlineCostsNoRetryAndTripsBreaker) {
  Table table = SmallTable();
  StatisticsFleet fleet(FleetOptions());
  BuildFleet(fleet, table);

  // The handler sleeps 600ms on every frame; the client's budget is
  // 150ms. The call must come back kDeadlineExceeded WITHOUT consuming a
  // retry (the overall budget is spent — a retry could never fit), and
  // the breaker must count the failure.
  LinkFaultSpec server_spec;
  server_spec.delay_micros = 600'000;
  server_spec.triggers.push_back({transport::kAnyConnection, 0,
                                  LinkDirection::kServe,
                                  LinkFaultKind::kDelay});
  LinkFaultInjector server_injector(server_spec);

  SocketTransportServer::Options server_options;
  server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
  server_options.injector = &server_injector;
  SocketTransportServer server(&fleet, &table, server_options);
  ASSERT_TRUE(server.Start().ok());

  metrics::MetricsPlane plane;
  TransportClient::Options client_options;
  client_options.retry = {.max_attempts = 3, .base_backoff_micros = 1'000};
  client_options.breaker_failure_threshold = 1;
  client_options.metrics = &plane;
  TransportClient client(client_options);
  client.AddPeer({"slow", [&](std::uint64_t budget)
                              -> Result<std::unique_ptr<Transport>> {
                    EQUIHIST_ASSIGN_OR_RETURN(
                        std::unique_ptr<SocketTransport> conn,
                        SocketTransport::Connect(server.endpoint(), budget));
                    return std::unique_ptr<Transport>(std::move(conn));
                  }});

  const auto start = std::chrono::steady_clock::now();
  const auto estimates =
      client.EstimateBatch(EstimateRequests(table), /*deadline=*/150'000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(estimates.ok());
  EXPECT_EQ(estimates.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed.count(), 500);  // returned at its deadline, not 600ms
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportRetries), 0u);
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportDeadlineExceeded), 1u);
  // breaker_failure_threshold = 1: the deadline failure tripped it.
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportBreakerOpens), 1u);
  server.Stop();
}

// -- Budgets too large to add to the clock ------------------------------------

constexpr std::uint64_t kMaxBudget = std::numeric_limits<std::uint64_t>::max();

// A plain blocking connection to a unix endpoint, for envelopes written by
// hand; -1 on failure.
int ConnectRaw(const Endpoint& endpoint) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, endpoint.path.c_str(), endpoint.path.size() + 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

TEST(TransportTest, EnvelopeWithMaximalBudgetIsServed) {
  Table table = SmallTable();
  StatisticsFleet fleet(FleetOptions());
  BuildFleet(fleet, table);

  metrics::MetricsPlane plane;
  SocketTransportServer::Options server_options;
  server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
  server_options.metrics = &plane;
  SocketTransportServer server(&fleet, &table, server_options);
  ASSERT_TRUE(server.Start().ok());

  const auto frame = fleetwire::Encode(
      fleetwire::EstimateBatchRequestFrame{EstimateRequests(table)});
  const auto expected = fleet.ServeFrame(frame, table);
  ASSERT_TRUE(expected.ok());

  // The budget varint is the client's to choose. One too large to add to
  // the server's clock means "no deadline", not a deadline in the past.
  const int fd = ConnectRaw(server.endpoint());
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> envelope = transport::EncodeEnvelope(
      /*request_id=*/7, kMaxBudget, /*include_budget=*/true, frame);
  ASSERT_EQ(write(fd, envelope.data(), envelope.size()),
            static_cast<ssize_t>(envelope.size()));
  transport::EnvelopeReader reader;
  const auto payload = reader.Next(fd, SteadyMicros() + 5'000'000, nullptr);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const auto reply =
      transport::DecodeEnvelopePayload(*payload, /*expect_budget=*/false);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 7u);
  EXPECT_EQ(reply->frame, *expected);  // the estimates, not a rejection
  close(fd);
  EXPECT_EQ(plane.counter(metrics::Counter::kServerExpiredDrops), 0u);

  // The client link saturates the same budget on connect and round trip.
  auto conn = SocketTransport::Connect(server.endpoint(), kMaxBudget);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const auto round_trip = (*conn)->RoundTrip(frame, kMaxBudget);
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  EXPECT_EQ(*round_trip, *expected);
  server.Stop();
}

TEST(TransportClientTest, CallWithMaximalBudgetSucceeds) {
  const auto frame = fleetwire::EncodeMetricsRequest();
  {
    TransportClient client(TransportClient::Options{});
    client.AddPeer(SharedPeer(
        "up", std::make_shared<FakeTransport>(
                  std::vector<Result<std::vector<std::uint8_t>>>{
                      MetricsReply("up")})));
    const auto reply = client.Call(frame, /*idempotent=*/true, kMaxBudget);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  // Hedged, with the primary stalled past the hedge delay and the hedge
  // taking 20 ms: the caller then waits on the exchange with the whole
  // saturated budget left.
  metrics::MetricsPlane plane;
  TransportClient::Options options;
  options.retry = {.max_attempts = 1};
  options.enable_hedging = true;
  options.hedge_initial_delay_micros = 5'000;
  options.metrics = &plane;
  TransportClient client(options);
  client.AddPeer(SharedPeer(
      "slow", std::make_shared<FakeTransport>(
                  std::vector<Result<std::vector<std::uint8_t>>>{
                      MetricsReply("slow")},
                  /*stall_micros=*/200'000)));
  client.AddPeer(SharedPeer(
      "fast", std::make_shared<FakeTransport>(
                  std::vector<Result<std::vector<std::uint8_t>>>{
                      MetricsReply("fast")},
                  /*stall_micros=*/20'000)));
  const auto reply = client.Call(frame, /*idempotent=*/true, kMaxBudget);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const auto decoded = fleetwire::DecodeMetricsResponse(*reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->json, "fast");
  EXPECT_EQ(plane.counter(metrics::Counter::kTransportHedgeWins), 1u);
}

// -- Expired-at-admission rejections ------------------------------------------

TEST(TransportTest, ServerDropsWorkWhoseDeadlineExpiredInQueue) {
  Table table = SmallTable();
  StatisticsFleet fleet(FleetOptions());
  BuildFleet(fleet, table);

  // One worker stalled 300ms on its first serve; a second request with an
  // 80ms budget expires while queued and must be answered with a
  // kDeadlineExceeded rejection at admission, not served late.
  LinkFaultSpec server_spec;
  server_spec.delay_micros = 300'000;
  server_spec.triggers.push_back(
      {1, 0, LinkDirection::kServe, LinkFaultKind::kDelay});
  LinkFaultInjector server_injector(server_spec);

  metrics::MetricsPlane plane;
  SocketTransportServer::Options server_options;
  server_options.endpoint = {Endpoint::Kind::kUnix, UnixSocketPath(), 0};
  server_options.workers = 1;
  server_options.injector = &server_injector;
  server_options.metrics = &plane;
  SocketTransportServer server(&fleet, &table, server_options);
  ASSERT_TRUE(server.Start().ok());

  const auto frame = fleetwire::Encode(
      fleetwire::EstimateBatchRequestFrame{EstimateRequests(table)});

  auto first = SocketTransport::Connect(server.endpoint(), 2'000'000);
  auto second = SocketTransport::Connect(server.endpoint(), 2'000'000);
  ASSERT_TRUE(first.ok() && second.ok());

  std::thread blocked([&] {
    const auto reply = (*first)->RoundTrip(frame, 2'000'000);
    EXPECT_TRUE(reply.ok());  // served after the injected stall
  });
  // Wait until the worker has dequeued the first frame (queue-wait sample
  // recorded) and sits in its 300ms stall, then race the second frame with
  // a budget that cannot survive the queue wait. A flat sleep here flakes
  // on a loaded host: the second frame could win the worker instead.
  for (int i = 0;
       i < 500 && plane.hist_count(metrics::Hist::kServerQueueWaitMicros) < 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(plane.hist_count(metrics::Hist::kServerQueueWaitMicros), 1u);
  const auto reply = (*second)->RoundTrip(frame, 80'000);
  blocked.join();
  // The expired drop is counted when the worker dequeues the second item
  // after finishing the stalled first one — give it a bounded moment
  // before Stop() tears the workers down mid-loop.
  for (int i = 0;
       i < 500 && plane.counter(metrics::Counter::kServerExpiredDrops) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.Stop();

  // Client side: its deadline fired (the rejection may arrive after the
  // client gave up — either way it is typed, never a late answer).
  if (reply.ok()) {
    const auto rejection = fleetwire::DecodeRejection(*reply);
    ASSERT_TRUE(rejection.ok());
    EXPECT_EQ(rejection->code, StatusCode::kDeadlineExceeded);
  } else {
    EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(plane.counter(metrics::Counter::kServerExpiredDrops), 1u);
}

}  // namespace
}  // namespace equihist
