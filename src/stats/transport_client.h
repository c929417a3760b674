#ifndef EQUIHIST_STATS_TRANSPORT_CLIENT_H_
#define EQUIHIST_STATS_TRANSPORT_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/circuit_breaker.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "stats/fleet_wire.h"
#include "stats/transport.h"

namespace equihist::transport {

// The resilient client over Transport links (DESIGN.md §17). Layers, from
// the outside in:
//
//   deadline   — every Call carries a budget; it bounds every wait below
//                and is propagated to the server's admission check. An
//                exhausted budget is final: kDeadlineExceeded, and the
//                retry layer never spends an attempt on it.
//   retries    — idempotent calls only (estimates, metrics), only on
//                kUnavailable, with jittered exponential backoff
//                (common/retry.h): transport failures are correlated
//                across clients, so un-jittered backoff would stampede a
//                recovering peer.
//   hedging    — after the observed round-trip latency percentile with no
//                answer, an idempotent call is raced on a second
//                connection; first success wins, the loser is discarded.
//   breakers   — per peer, a CircuitBreaker (common/circuit_breaker.h:
//                N consecutive failures open it; after a cooldown a probe
//                passes half-open; success closes). Open peers are skipped;
//                with every breaker open the call fast-fails
//                kUnavailable without touching the network.
//   shedding   — a server kResourceExhausted rejection is backpressure:
//                typed, counted, and NEVER retried (retrying into an
//                overloaded server is how collapses happen).
//
// Chaos invariant (pinned by the transport chaos suite): under any mix of
// link faults every Call returns a typed Status within its deadline — no
// fault class can wedge a caller thread.
class TransportClient {
 public:
  // One server the client can reach. `connect` dials a fresh link within
  // the given budget; the client pools returned links per peer and
  // discards broken ones.
  struct Peer {
    std::string name;
    std::function<Result<std::unique_ptr<Transport>>(std::uint64_t)> connect;
  };

  // Backoff jitter fraction of every retry (common/retry.h).
  static constexpr double kRetryJitter = 0.25;
  // Budget when Call is given none.
  static constexpr std::uint64_t kDefaultDeadlineMicros = 1'000'000;
  // A hedge launches after this percentile of the last kLatencyWindow
  // round trips, but never earlier than kHedgeMinDelayMicros.
  static constexpr double kHedgePercentile = 0.95;
  static constexpr std::uint64_t kHedgeMinDelayMicros = 100;
  static constexpr std::size_t kLatencyWindow = 64;

  struct Options {
    // Retry schedule for idempotent calls (attempts include the first).
    RetryPolicy retry{};
    // Seed of the backoff jitter's random stream (deterministic per
    // client).
    std::uint64_t jitter_seed = 0;
    // Cap per attempt (0 = whatever remains of the call budget). With a
    // cap, an attempt that times out while overall budget remains is a
    // *transient* failure — the next attempt may land on a healthier
    // connection.
    std::uint64_t attempt_timeout_micros = 0;
    // Hedged reads. Off, attempts run inline on the caller; on, they run
    // on a small internal pool so the hedge can overtake a stalled
    // primary.
    bool enable_hedging = false;
    // The hedge delay until the latency window has warmed up (8 samples).
    std::uint64_t hedge_initial_delay_micros = 10'000;
    // Per-peer circuit breaker (common/circuit_breaker.h).
    std::uint64_t breaker_failure_threshold = 3;
    std::uint64_t breaker_cooldown_micros = 1'000'000;
    // Monotonic microsecond clock driving breaker cooldowns; null uses
    // steady_clock. Tests inject a manual clock.
    std::function<std::uint64_t()> clock{};
    // Optional metrics plane; must outlive the client.
    metrics::MetricsPlane* metrics = nullptr;
  };

  explicit TransportClient(Options options);
  ~TransportClient();
  TransportClient(const TransportClient&) = delete;
  TransportClient& operator=(const TransportClient&) = delete;

  // Peers are tried round-robin; the hedge goes to a different peer than
  // the primary when more than one is registered.
  void AddPeer(Peer peer);

  // Sends one fleetwire request frame and returns the response frame.
  // `idempotent` gates retries and hedging: estimate and metrics reads
  // are; build-control mutations are not (a retried kRecordModifications
  // would double-count). `deadline_micros` of 0 uses the default budget.
  // Rejection frames come back as their carried Status, never as bytes.
  Result<std::vector<std::uint8_t>> Call(std::span<const std::uint8_t> frame,
                                         bool idempotent,
                                         std::uint64_t deadline_micros = 0);

  // -- Typed convenience wrappers ------------------------------------------

  // Idempotent: retried and hedged.
  Result<std::vector<double>> EstimateBatch(
      const std::vector<BatchEstimateRequest>& requests,
      std::uint64_t deadline_micros = 0);
  // Not idempotent: one attempt, no hedge. The returned Status is the
  // remote build outcome (transport failures surface the same way).
  Status BuildControl(fleetwire::BuildOp op, const std::string& column,
                      std::uint64_t count = 0,
                      std::uint64_t deadline_micros = 0);
  // Idempotent: retried and hedged.
  Result<std::string> FetchMetricsJson(std::uint64_t deadline_micros = 0);

 private:
  struct PeerState;
  struct Exchange;

  // The hedge launch delay from the latency window.
  std::uint64_t HedgeDelayMicros() REQUIRES(mu_);
  void RecordLatency(std::uint64_t micros) REQUIRES(mu_);

  // One macro-attempt: primary (+ optional hedge) against distinct
  // peers, first success wins, every wait bounded by `deadline_abs`.
  Result<std::vector<std::uint8_t>> HedgedAttempt(
      std::span<const std::uint8_t> frame, bool idempotent,
      std::uint64_t deadline_abs) EXCLUDES(mu_);
  // One wire exchange against one peer (connect or reuse, round-trip,
  // pool or discard).
  Result<std::vector<std::uint8_t>> SingleExchange(std::size_t peer_index,
                                                   std::span<const std::uint8_t>
                                                       frame,
                                                   std::uint64_t deadline_abs)
      EXCLUDES(mu_);

  Options options_;
  // The breaker settings from options_, shared by every peer.
  const CircuitBreaker::Policy breaker_policy_;

  mutable Mutex mu_{lockrank::kTransportClient};
  std::vector<std::unique_ptr<PeerState>> peers_ GUARDED_BY(mu_);
  std::size_t next_peer_ GUARDED_BY(mu_) = 0;
  Rng jitter_rng_ GUARDED_BY(mu_);
  std::vector<std::uint64_t> latency_window_ GUARDED_BY(mu_);
  std::size_t latency_next_ GUARDED_BY(mu_) = 0;

  // Runs hedged attempts so a hedge can finish while the primary is
  // stuck. Sized 3 (= 2 workers + caller). Declared LAST: its destructor
  // joins in-flight attempts while every member they touch is still
  // alive.
  std::unique_ptr<ThreadPool> hedge_pool_;
};

}  // namespace equihist::transport

#endif  // EQUIHIST_STATS_TRANSPORT_CLIENT_H_
