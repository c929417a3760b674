#ifndef EQUIHIST_COMMON_CIRCUIT_BREAKER_H_
#define EQUIHIST_COMMON_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>

#include "common/timer.h"

namespace equihist {

// The circuit breaker every retrying caller in the library shares
// (DESIGN.md §11): one per column in StatisticsShard, around rebuilds, and
// one per peer in the transport client, around wire exchanges. After
// `failure_threshold` consecutive failures it opens for `cooldown_micros`;
// once the cooldown has passed it admits calls again (half-open), and the
// next outcome decides: success closes it, failure re-opens it for
// another cooldown.
//
// Not thread-safe: the owner guards each breaker with its own lock.
class CircuitBreaker {
 public:
  // When to open, for how long, and the clock that times it: one policy
  // serves all of an owner's breakers.
  struct Policy {
    std::uint64_t failure_threshold = 3;
    std::uint64_t cooldown_micros = 1'000'000;
    // Monotonic microseconds; null uses SteadyMicros.
    std::function<std::uint64_t()> clock{};

    std::uint64_t Now() const { return clock ? clock() : SteadyMicros(); }
  };

  // True unless the breaker is open with its cooldown still running. A
  // closed breaker answers without reading the clock.
  bool Admits(const Policy& policy) const {
    return open_until_ == 0 || policy.Now() >= open_until_;
  }

  void RecordSuccess() {
    consecutive_failures_ = 0;
    open_until_ = 0;
  }

  // Counts a failure; from the threshold on, every failure (re)starts the
  // cooldown. Returns true when this failure opened a breaker that was
  // admitting calls — a fresh open, from closed or from a failed half-open
  // probe — and false below the threshold or when the breaker was already
  // open and only had its cooldown extended.
  bool RecordFailure(const Policy& policy) {
    ++consecutive_failures_;
    if (consecutive_failures_ < policy.failure_threshold) return false;
    const std::uint64_t now = policy.Now();
    const bool was_admitting = open_until_ == 0 || now >= open_until_;
    open_until_ = DeadlineAfter(now, policy.cooldown_micros);
    return was_admitting;
  }

  std::uint64_t consecutive_failures() const { return consecutive_failures_; }

 private:
  std::uint64_t consecutive_failures_ = 0;
  std::uint64_t open_until_ = 0;  // policy-clock micros; 0 = closed
};

}  // namespace equihist

#endif  // EQUIHIST_COMMON_CIRCUIT_BREAKER_H_
