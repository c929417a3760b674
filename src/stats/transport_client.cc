#include "stats/transport_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/timer.h"

namespace equihist::transport {

// Per-peer mutable state, all guarded by the client mutex.
struct TransportClient::PeerState {
  Peer peer;
  // Idle pooled links; broken ones are discarded, never pooled.
  std::vector<std::unique_ptr<Transport>> pool;
  CircuitBreaker breaker;
};

// Shared state of one hedged exchange. The caller and up to two pool
// tasks touch it; the shared_ptr keeps it alive past an abandoning
// caller, so a late attempt completes into memory nobody reads.
struct TransportClient::Exchange {
  Mutex mu{lockrank::kExchange};
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  bool winner_is_hedge GUARDED_BY(mu) = false;
  int outstanding GUARDED_BY(mu) = 0;
  Result<std::vector<std::uint8_t>> result GUARDED_BY(mu){
      Status::Internal("exchange unresolved")};
};

TransportClient::TransportClient(Options options)
    : options_(std::move(options)),
      breaker_policy_{options_.breaker_failure_threshold,
                      options_.breaker_cooldown_micros, options_.clock},
      jitter_rng_(DeriveStreamSeed(options_.jitter_seed, 0x7261775F6C6B74ULL)) {
  if (options_.enable_hedging) {
    // 2 real workers + the caller: the hedge must be able to run while
    // the primary blocks (a size-1 pool would run Submit inline and
    // serialize them, defeating the hedge entirely).
    hedge_pool_ = std::make_unique<ThreadPool>(3);
  }
}

TransportClient::~TransportClient() = default;

void TransportClient::AddPeer(Peer peer) {
  MutexLock lock(mu_);
  auto state = std::make_unique<PeerState>();
  state->peer = std::move(peer);
  peers_.push_back(std::move(state));
}

std::uint64_t TransportClient::HedgeDelayMicros() {
  std::uint64_t delay = options_.hedge_initial_delay_micros;
  // Before the window warms up there is no percentile worth trusting.
  if (latency_window_.size() >= 8) {
    std::vector<std::uint64_t> samples = latency_window_;
    std::sort(samples.begin(), samples.end());
    delay = samples[static_cast<std::size_t>(
        kHedgePercentile * static_cast<double>(samples.size()))];
  }
  return std::max(delay, kHedgeMinDelayMicros);
}

void TransportClient::RecordLatency(std::uint64_t micros) {
  if (latency_window_.size() < kLatencyWindow) {
    latency_window_.push_back(micros);
    return;
  }
  latency_window_[latency_next_] = micros;
  latency_next_ = (latency_next_ + 1) % latency_window_.size();
}

Result<std::vector<std::uint8_t>> TransportClient::SingleExchange(
    std::size_t peer_index, std::span<const std::uint8_t> frame,
    std::uint64_t deadline_abs) {
  std::unique_ptr<Transport> link;
  std::function<Result<std::unique_ptr<Transport>>(std::uint64_t)> connect;
  {
    MutexLock lock(mu_);
    PeerState& peer = *peers_[peer_index];
    if (!peer.pool.empty()) {
      link = std::move(peer.pool.back());
      peer.pool.pop_back();
    } else {
      connect = peer.peer.connect;
    }
  }
  if (link == nullptr) {
    const std::uint64_t remaining = RemainingMicros(deadline_abs);
    if (remaining == 0) {
      return Status::DeadlineExceeded("call budget exhausted");
    }
    EQUIHIST_ASSIGN_OR_RETURN(link, connect(remaining));
  }
  Result<std::vector<std::uint8_t>> response =
      link->RoundTrip(frame, RemainingMicros(deadline_abs));
  if (!link->Broken()) {
    MutexLock lock(mu_);
    peers_[peer_index]->pool.push_back(std::move(link));
  }
  return response;
}

Result<std::vector<std::uint8_t>> TransportClient::HedgedAttempt(
    std::span<const std::uint8_t> frame, bool idempotent,
    std::uint64_t deadline_abs) {
  std::size_t primary = static_cast<std::size_t>(-1);
  std::size_t hedge_peer = static_cast<std::size_t>(-1);
  std::uint64_t hedge_delay = 0;
  bool hedging = false;
  {
    MutexLock lock(mu_);
    const std::size_t n = peers_.size();
    if (n == 0) {
      return Status::FailedPrecondition("transport client has no peers");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t candidate = (next_peer_ + i) % n;
      if (peers_[candidate]->breaker.Admits(breaker_policy_)) {
        primary = candidate;
        break;
      }
    }
    next_peer_ = (next_peer_ + 1) % n;
    if (primary == static_cast<std::size_t>(-1)) {
      if (options_.metrics != nullptr) {
        options_.metrics->Increment(
            metrics::Counter::kTransportBreakerFastFails);
      }
      return Status::Unavailable("every peer's circuit breaker is open");
    }
    hedging = options_.enable_hedging && idempotent && hedge_pool_ != nullptr;
    if (hedging) {
      hedge_delay = HedgeDelayMicros();
      // Prefer a different peer; with one peer, race two links to it.
      hedge_peer = primary;
      for (std::size_t i = 1; i < n; ++i) {
        const std::size_t candidate = (primary + i) % n;
        if (peers_[candidate]->breaker.Admits(breaker_policy_)) {
          hedge_peer = candidate;
          break;
        }
      }
    }
  }

  const std::uint64_t attempt_start = SteadyMicros();
  // Settles one wire exchange: breaker bookkeeping, then completion of
  // the shared state (first success wins; the last failure wins when
  // nothing succeeds).
  auto settle = [this](std::size_t peer_index,
                       const Result<std::vector<std::uint8_t>>& result) {
    MutexLock lock(mu_);
    CircuitBreaker& breaker = peers_[peer_index]->breaker;
    if (result.ok()) {
      breaker.RecordSuccess();
    } else if ((result.status().code() == StatusCode::kUnavailable ||
                result.status().code() == StatusCode::kDeadlineExceeded) &&
               breaker.RecordFailure(breaker_policy_) &&
               options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kTransportBreakerOpens);
    }
  };

  if (!hedging) {
    Result<std::vector<std::uint8_t>> result =
        SingleExchange(primary, frame, deadline_abs);
    settle(primary, result);
    if (result.ok()) {
      const std::uint64_t elapsed = SteadyMicros() - attempt_start;
      MutexLock lock(mu_);
      RecordLatency(elapsed);
      if (options_.metrics != nullptr) {
        options_.metrics->Observe(metrics::Hist::kTransportRoundTripMicros,
                                  elapsed);
      }
    }
    return result;
  }

  auto state = std::make_shared<Exchange>();
  auto frame_copy = std::make_shared<std::vector<std::uint8_t>>(frame.begin(),
                                                                frame.end());
  auto run = [this, state, frame_copy, deadline_abs, settle](
                 std::size_t peer_index, bool is_hedge) {
    Result<std::vector<std::uint8_t>> result =
        SingleExchange(peer_index, *frame_copy, deadline_abs);
    settle(peer_index, result);
    MutexLock lock(state->mu);
    --state->outstanding;
    if (state->done) return;  // a winner already finished; discard
    if (result.ok() || state->outstanding == 0) {
      state->done = true;
      state->winner_is_hedge = is_hedge;
      state->result = std::move(result);
      state->cv.NotifyAll();
    }
  };

  {
    MutexLock lock(state->mu);
    state->outstanding = 1;
  }
  std::ignore = hedge_pool_->Submit([run, primary]() { run(primary, false); });

  // Wait out the hedge delay; launch the hedge only if the primary has
  // neither answered nor failed by then.
  bool launch_hedge = false;
  {
    MutexLock lock(state->mu);
    const std::uint64_t wait =
        std::min(hedge_delay, RemainingMicros(deadline_abs));
    const bool finished =
        state->cv.WaitFor(state->mu, std::chrono::microseconds(wait),
                          [&state]() REQUIRES(state->mu) {
                            return state->done;
                          });
    if (!finished && RemainingMicros(deadline_abs) > 0) {
      launch_hedge = true;
      ++state->outstanding;
    }
  }
  if (launch_hedge) {
    if (options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kTransportHedges);
    }
    std::ignore =
        hedge_pool_->Submit([run, hedge_peer]() { run(hedge_peer, true); });
  }

  bool winner_is_hedge = false;
  Result<std::vector<std::uint8_t>> result{
      Status::DeadlineExceeded("call budget exhausted")};
  {
    MutexLock lock(state->mu);
    // Waits in slices of at most a second: the remaining budget of a
    // saturated deadline overflows the wait's clock arithmetic.
    bool finished = false;
    do {
      finished = state->cv.WaitFor(
          state->mu,
          std::chrono::microseconds(std::min<std::uint64_t>(
              RemainingMicros(deadline_abs) + 1, 1'000'000)),
          [&state]() REQUIRES(state->mu) { return state->done; });
    } while (!finished && RemainingMicros(deadline_abs) > 0);
    if (finished) {
      result = std::move(state->result);
      winner_is_hedge = state->winner_is_hedge;
      // Late attempts must not resurrect the moved-from result.
      state->result = Status::Internal("exchange already claimed");
    } else {
      // Abandon: the deadline fired with attempts still in flight. They
      // complete into `state` (kept alive by their shared_ptr copies)
      // and their links are pooled or discarded as usual.
      state->done = true;
    }
  }
  if (result.ok()) {
    const std::uint64_t elapsed = SteadyMicros() - attempt_start;
    MutexLock lock(mu_);
    RecordLatency(elapsed);
    if (options_.metrics != nullptr) {
      options_.metrics->Observe(metrics::Hist::kTransportRoundTripMicros,
                                elapsed);
      if (winner_is_hedge) {
        options_.metrics->Increment(metrics::Counter::kTransportHedgeWins);
      }
    }
  }
  return result;
}

Result<std::vector<std::uint8_t>> TransportClient::Call(
    std::span<const std::uint8_t> frame, bool idempotent,
    std::uint64_t deadline_micros) {
  if (options_.metrics != nullptr) {
    options_.metrics->Increment(metrics::Counter::kTransportRequests);
  }
  const std::uint64_t budget = deadline_micros != 0
                                   ? deadline_micros
                                   : kDefaultDeadlineMicros;
  const std::uint64_t deadline_abs = DeadlineAfter(SteadyMicros(), budget);
  const std::uint32_t attempts =
      idempotent ? options_.retry.EffectiveAttempts() : 1;
  Status last = Status::Internal("no attempt ran");
  auto fail = [this](Status status) -> Status {
    if (options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kTransportErrors);
      if (status.code() == StatusCode::kDeadlineExceeded) {
        options_.metrics->Increment(
            metrics::Counter::kTransportDeadlineExceeded);
      }
    }
    return status;
  };
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::uint64_t bits = 0;
      {
        MutexLock lock(mu_);
        bits = jitter_rng_.Next();
      }
      const std::uint64_t backoff = std::min(
          JitteredBackoffMicros(options_.retry, attempt,
                                kRetryJitter, bits),
          RemainingMicros(deadline_abs));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
      if (options_.metrics != nullptr) {
        options_.metrics->Increment(metrics::Counter::kTransportRetries);
      }
    }
    if (RemainingMicros(deadline_abs) == 0) {
      return fail(Status::DeadlineExceeded("call budget exhausted"));
    }
    std::uint64_t attempt_deadline = deadline_abs;
    if (options_.attempt_timeout_micros > 0) {
      attempt_deadline = std::min(
          deadline_abs,
          DeadlineAfter(SteadyMicros(), options_.attempt_timeout_micros));
    }
    Result<std::vector<std::uint8_t>> result =
        HedgedAttempt(frame, idempotent, attempt_deadline);
    if (result.ok()) {
      const Result<fleetwire::FrameType> type = fleetwire::PeekType(*result);
      if (!type.ok()) {
        // The peer answered with bytes no frame decoder accepts: damage
        // that no envelope checksum caught.
        last = Status::Unavailable("undecodable response frame");
      } else if (*type == fleetwire::FrameType::kRejection) {
        const Result<fleetwire::RejectionFrame> rejection =
            fleetwire::DecodeRejection(*result);
        if (!rejection.ok()) {
          last = Status::Unavailable("malformed rejection frame");
        } else {
          last = Status(rejection->code, rejection->message);
          if (last.code() == StatusCode::kResourceExhausted) {
            // Load-shed backpressure: typed, counted, never retried —
            // retrying into an overloaded server deepens the overload.
            if (options_.metrics != nullptr) {
              options_.metrics->Increment(
                  metrics::Counter::kTransportBackpressure);
            }
            return fail(std::move(last));
          }
        }
      } else {
        return result;
      }
    } else {
      last = result.status();
    }
    // An attempt-scoped timeout with overall budget left is transient:
    // the next attempt may land on a healthier link. A spent overall
    // budget stays kDeadlineExceeded — final, and never worth a retry.
    if (last.code() == StatusCode::kDeadlineExceeded &&
        RemainingMicros(deadline_abs) > 0) {
      last = Status::Unavailable("attempt timed out (budget remains)");
    }
    if (!IsTransientError(last.code())) break;
  }
  return fail(std::move(last));
}

Result<std::vector<double>> TransportClient::EstimateBatch(
    const std::vector<BatchEstimateRequest>& requests,
    std::uint64_t deadline_micros) {
  const std::vector<std::uint8_t> frame =
      fleetwire::Encode(fleetwire::EstimateBatchRequestFrame{requests});
  EQUIHIST_ASSIGN_OR_RETURN(
      const std::vector<std::uint8_t> reply,
      Call(frame, /*idempotent=*/true, deadline_micros));
  EQUIHIST_ASSIGN_OR_RETURN(fleetwire::EstimateBatchResponseFrame response,
                            fleetwire::DecodeEstimateBatchResponse(reply));
  if (response.estimates.size() != requests.size()) {
    return Status::Unavailable("estimate count does not match the request");
  }
  return std::move(response.estimates);
}

Status TransportClient::BuildControl(fleetwire::BuildOp op,
                                     const std::string& column,
                                     std::uint64_t count,
                                     std::uint64_t deadline_micros) {
  fleetwire::BuildControlRequestFrame request;
  request.op = op;
  request.column = column;
  request.count = count;
  const std::vector<std::uint8_t> frame = fleetwire::Encode(request);
  Result<std::vector<std::uint8_t>> reply =
      Call(frame, /*idempotent=*/false, deadline_micros);
  if (!reply.ok()) return reply.status();
  Result<fleetwire::BuildControlResponseFrame> response =
      fleetwire::DecodeBuildControlResponse(*reply);
  if (!response.ok()) {
    return Status::Unavailable("undecodable build-control response");
  }
  if (response->code == StatusCode::kOk) return Status::OK();
  return Status(response->code, response->message);
}

Result<std::string> TransportClient::FetchMetricsJson(
    std::uint64_t deadline_micros) {
  const std::vector<std::uint8_t> frame = fleetwire::EncodeMetricsRequest();
  EQUIHIST_ASSIGN_OR_RETURN(
      const std::vector<std::uint8_t> reply,
      Call(frame, /*idempotent=*/true, deadline_micros));
  EQUIHIST_ASSIGN_OR_RETURN(fleetwire::MetricsResponseFrame response,
                            fleetwire::DecodeMetricsResponse(reply));
  return std::move(response.json);
}

}  // namespace equihist::transport
