#include "common/circuit_breaker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace equihist {
namespace {

// A policy with a 1 ms cooldown on a clock the test sets by hand; `reads`
// (optional) counts how often the breaker looks at the clock.
CircuitBreaker::Policy ManualPolicy(std::uint64_t threshold,
                                    const std::uint64_t* now,
                                    int* reads = nullptr) {
  return {threshold, /*cooldown_micros=*/1'000, [now, reads] {
            if (reads != nullptr) ++*reads;
            return *now;
          }};
}

TEST(CircuitBreakerStateTest, StaysClosedBelowTheThreshold) {
  std::uint64_t now = 5'000;
  int reads = 0;
  const CircuitBreaker::Policy policy = ManualPolicy(3, &now, &reads);
  CircuitBreaker breaker;
  EXPECT_TRUE(breaker.Admits(policy));
  EXPECT_FALSE(breaker.RecordFailure(policy));
  EXPECT_FALSE(breaker.RecordFailure(policy));
  EXPECT_EQ(breaker.consecutive_failures(), 2u);
  EXPECT_TRUE(breaker.Admits(policy));
  // A closed breaker never reads the clock.
  EXPECT_EQ(reads, 0);
}

TEST(CircuitBreakerStateTest, OpensExactlyAtTheThresholdForOneCooldown) {
  std::uint64_t now = 5'000;
  const CircuitBreaker::Policy policy = ManualPolicy(3, &now);
  CircuitBreaker breaker;
  EXPECT_FALSE(breaker.RecordFailure(policy));
  EXPECT_FALSE(breaker.RecordFailure(policy));
  EXPECT_TRUE(breaker.RecordFailure(policy));  // the open is reported
  EXPECT_EQ(breaker.consecutive_failures(), 3u);
  EXPECT_FALSE(breaker.Admits(policy));
  now = 5'999;
  EXPECT_FALSE(breaker.Admits(policy));
  now = 6'000;  // cooldown over: half-open
  EXPECT_TRUE(breaker.Admits(policy));
}

TEST(CircuitBreakerStateTest, FailingWhileOpenExtendsTheCooldownSilently) {
  std::uint64_t now = 0;
  const CircuitBreaker::Policy policy = ManualPolicy(1, &now);
  CircuitBreaker breaker;
  EXPECT_TRUE(breaker.RecordFailure(policy));  // open until 1'000
  // A call admitted before the open fails late: no second open is
  // reported, but the cooldown restarts from now.
  now = 600;
  EXPECT_FALSE(breaker.RecordFailure(policy));
  now = 1'000;
  EXPECT_FALSE(breaker.Admits(policy));
  now = 1'600;
  EXPECT_TRUE(breaker.Admits(policy));
}

TEST(CircuitBreakerStateTest, FailedHalfOpenProbeReopensAndReportsIt) {
  std::uint64_t now = 0;
  const CircuitBreaker::Policy policy = ManualPolicy(2, &now);
  CircuitBreaker breaker;
  EXPECT_FALSE(breaker.RecordFailure(policy));
  EXPECT_TRUE(breaker.RecordFailure(policy));
  now = 1'000;
  ASSERT_TRUE(breaker.Admits(policy));         // the half-open probe
  EXPECT_TRUE(breaker.RecordFailure(policy));  // it failed: a fresh open
  EXPECT_EQ(breaker.consecutive_failures(), 3u);
  EXPECT_FALSE(breaker.Admits(policy));
  now = 2'000;
  EXPECT_TRUE(breaker.Admits(policy));
}

TEST(CircuitBreakerStateTest, SuccessClosesAndResetsTheCount) {
  std::uint64_t now = 0;
  const CircuitBreaker::Policy policy = ManualPolicy(2, &now);
  CircuitBreaker breaker;
  EXPECT_FALSE(breaker.RecordFailure(policy));
  EXPECT_TRUE(breaker.RecordFailure(policy));
  now = 1'000;
  breaker.RecordSuccess();  // the half-open probe went through
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.Admits(policy));
  // The count starts over: one failure is below the threshold again.
  EXPECT_FALSE(breaker.RecordFailure(policy));
  EXPECT_TRUE(breaker.Admits(policy));
  EXPECT_TRUE(breaker.RecordFailure(policy));
  EXPECT_FALSE(breaker.Admits(policy));
}

TEST(CircuitBreakerStateTest, ThresholdsZeroAndOneOpenOnTheFirstFailure) {
  for (const std::uint64_t threshold : {0u, 1u}) {
    std::uint64_t now = 0;
    const CircuitBreaker::Policy policy = ManualPolicy(threshold, &now);
    CircuitBreaker breaker;
    EXPECT_TRUE(breaker.Admits(policy)) << threshold;
    EXPECT_TRUE(breaker.RecordFailure(policy)) << threshold;
    EXPECT_FALSE(breaker.Admits(policy)) << threshold;
    now = 1'000;
    EXPECT_TRUE(breaker.Admits(policy)) << threshold;
  }
}

TEST(CircuitBreakerStateTest, CooldownPastTheClockEndSaturates) {
  constexpr std::uint64_t kEnd = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t now = 10;
  CircuitBreaker::Policy policy = ManualPolicy(1, &now);
  policy.cooldown_micros = kEnd;
  CircuitBreaker breaker;
  EXPECT_TRUE(breaker.RecordFailure(policy));
  // now + cooldown does not wrap into the past: the breaker stays open.
  EXPECT_FALSE(breaker.Admits(policy));
  now = kEnd - 1;
  EXPECT_FALSE(breaker.Admits(policy));
}

}  // namespace
}  // namespace equihist
