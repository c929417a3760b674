#ifndef EQUIHIST_COMMON_TIMER_H_
#define EQUIHIST_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace equihist {

// Monotonic wall-clock stopwatch used by examples and benchmark harnesses.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// -- Deadlines ----------------------------------------------------------------
//
// Every deadline in the library is an absolute steady-clock microsecond
// count, so a budget can be handed from layer to layer without drift.

inline std::uint64_t SteadyMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The deadline `budget_micros` after `start_micros`, saturating at the
// clock's end: a budget too large to add means "no deadline", never a
// deadline that wrapped into the past.
inline std::uint64_t DeadlineAfter(std::uint64_t start_micros,
                                   std::uint64_t budget_micros) {
  constexpr std::uint64_t kEnd = std::numeric_limits<std::uint64_t>::max();
  return budget_micros > kEnd - start_micros ? kEnd
                                             : start_micros + budget_micros;
}

// What remains before an absolute steady-clock deadline; 0 = spent.
inline std::uint64_t RemainingMicros(std::uint64_t deadline_micros) {
  const std::uint64_t now = SteadyMicros();
  return now >= deadline_micros ? 0 : deadline_micros - now;
}

}  // namespace equihist

#endif  // EQUIHIST_COMMON_TIMER_H_
