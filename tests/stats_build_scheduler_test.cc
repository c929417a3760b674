// BuildScheduler tests: deterministic priority admission (degraded >
// stale > fresh, per-table round-robin, DML pressure), request
// coalescing, the max-inflight budget under a real pool, failure
// aggregation, and shutdown discipline. Determinism comes from
// {threads = 1, start_paused = true}: dispatch happens inline on the
// resuming thread, so execution order IS the queue's priority order.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "stats/build_scheduler.h"

namespace equihist {
namespace {

// Records execution order; builds are closures appending to `order`.
struct OrderLog {
  std::mutex mu;
  std::vector<std::string> order;

  std::function<Status()> Build(std::string key) {
    return [this, key = std::move(key)]() {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(key);
      return Status::OK();
    };
  }
};

BuildScheduler::Options Inline() {
  return {.max_inflight = 1, .threads = 1, .start_paused = true};
}

// "<prefix><i>", built by appending: GCC 12 at -O3 (the Release build)
// reports a false -Wrestrict positive on `"c" + std::to_string(i)`.
std::string Name(const char* prefix, int i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

TEST(BuildSchedulerTest, DegradedBeatsStaleBeatsFreshDeterministically) {
  OrderLog log;
  BuildScheduler scheduler(Inline());
  // Enqueued deliberately in worst-case order: fresh first.
  scheduler.Enqueue({"t", "fresh1", ColumnHealth::kFresh, 0.0,
                     log.Build("fresh1")});
  scheduler.Enqueue({"t", "fresh2", ColumnHealth::kFresh, 0.9,
                     log.Build("fresh2")});
  scheduler.Enqueue({"t", "stale1", ColumnHealth::kStale, 0.3,
                     log.Build("stale1")});
  scheduler.Enqueue({"t", "degraded1", ColumnHealth::kDegraded, 0.0,
                     log.Build("degraded1")});
  scheduler.Enqueue({"t", "stale2", ColumnHealth::kStale, 0.7,
                     log.Build("stale2")});
  scheduler.Resume();
  scheduler.Drain();
  // Degraded first; stales by descending pressure; freshes by descending
  // pressure.
  const std::vector<std::string> expected = {"degraded1", "stale2", "stale1",
                                             "fresh2", "fresh1"};
  EXPECT_EQ(log.order, expected);
  const auto counts = scheduler.counts();
  EXPECT_EQ(counts.enqueued, 5u);
  EXPECT_EQ(counts.completed, 5u);
  EXPECT_EQ(counts.queued, 0u);
  EXPECT_EQ(counts.inflight, 0u);
}

TEST(BuildSchedulerTest, TablesTakeRoundRobinTurnsWithinAClass) {
  OrderLog log;
  BuildScheduler scheduler(Inline());
  // Three stale requests for table A, then two for B: strict FIFO would
  // starve B behind A; round-robin alternates turns.
  scheduler.Enqueue({"A", "a1", ColumnHealth::kStale, 0.0, log.Build("a1")});
  scheduler.Enqueue({"A", "a2", ColumnHealth::kStale, 0.0, log.Build("a2")});
  scheduler.Enqueue({"A", "a3", ColumnHealth::kStale, 0.0, log.Build("a3")});
  scheduler.Enqueue({"B", "b1", ColumnHealth::kStale, 0.0, log.Build("b1")});
  scheduler.Enqueue({"B", "b2", ColumnHealth::kStale, 0.0, log.Build("b2")});
  scheduler.Resume();
  scheduler.Drain();
  const std::vector<std::string> expected = {"a1", "b1", "a2", "b2", "a3"};
  EXPECT_EQ(log.order, expected);
}

TEST(BuildSchedulerTest, RequeueCoalescesAndUpgradesSeverity) {
  OrderLog log;
  metrics::MetricsPlane plane;
  BuildScheduler scheduler(Inline(), &plane);
  scheduler.Enqueue({"t", "x", ColumnHealth::kFresh, 0.1, log.Build("x-old")});
  scheduler.Enqueue({"t", "y", ColumnHealth::kStale, 0.0, log.Build("y")});
  // Re-request of the queued x: upgrades fresh → degraded, so x now beats
  // y, and only the newest closure runs.
  scheduler.Enqueue(
      {"t", "x", ColumnHealth::kDegraded, 0.05, log.Build("x-new")});
  scheduler.Resume();
  scheduler.Drain();
  const std::vector<std::string> expected = {"x-new", "y"};
  EXPECT_EQ(log.order, expected);
  const auto counts = scheduler.counts();
  EXPECT_EQ(counts.enqueued, 3u);
  EXPECT_EQ(counts.coalesced, 1u);
  EXPECT_EQ(counts.completed, 2u);
  EXPECT_EQ(plane.counter(metrics::Counter::kSchedulerCoalesced), 1u);
  EXPECT_EQ(plane.counter(metrics::Counter::kSchedulerCompleted), 2u);
}

TEST(BuildSchedulerTest, MaxInflightBoundsConcurrencyUnderAPool) {
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  std::atomic<int> completed{0};
  {
    BuildScheduler scheduler({.max_inflight = 2, .threads = 4});
    for (int i = 0; i < 12; ++i) {
      scheduler.Enqueue(
          {"t", Name("c", i), ColumnHealth::kStale, 0.0,
           [&running, &high_water, &completed]() {
             const int now = running.fetch_add(1) + 1;
             int seen = high_water.load();
             while (now > seen &&
                    !high_water.compare_exchange_weak(seen, now)) {
             }
             std::this_thread::sleep_for(std::chrono::milliseconds(2));
             running.fetch_sub(1);
             completed.fetch_add(1);
             return Status::OK();
           }});
    }
    scheduler.Drain();
  }
  EXPECT_EQ(completed.load(), 12);
  EXPECT_LE(high_water.load(), 2);
  EXPECT_GE(high_water.load(), 1);
}

TEST(BuildSchedulerTest, FailuresAreCountedAndTakeable) {
  metrics::MetricsPlane plane;
  BuildScheduler scheduler(Inline(), &plane);
  scheduler.Enqueue({"t", "good", ColumnHealth::kStale, 0.0,
                     []() { return Status::OK(); }});
  scheduler.Enqueue({"t", "bad", ColumnHealth::kStale, 0.0, []() {
                       return Status::Unavailable("page lost");
                     }});
  scheduler.Resume();
  scheduler.Drain();
  const auto counts = scheduler.counts();
  EXPECT_EQ(counts.completed, 1u);
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(plane.counter(metrics::Counter::kSchedulerFailed), 1u);
  const auto failures = scheduler.TakeFailures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].first, "t.bad");
  EXPECT_EQ(failures[0].second.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(scheduler.TakeFailures().empty());  // cleared on take
}

TEST(BuildSchedulerTest, DestructorDiscardsQueuedWorkButFinishesInflight) {
  std::atomic<int> ran{0};
  {
    BuildScheduler scheduler(
        {.max_inflight = 1, .threads = 1, .start_paused = true});
    for (int i = 0; i < 5; ++i) {
      scheduler.Enqueue({"t", Name("c", i), ColumnHealth::kFresh, 0.0,
                         [&ran]() {
                           ran.fetch_add(1);
                           return Status::OK();
                         }});
    }
    // Never resumed: destruction discards the queue without running it.
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(BuildSchedulerTest, ConcurrentEnqueuersAllGetServed) {
  std::atomic<int> ran{0};
  BuildScheduler scheduler({.max_inflight = 2, .threads = 2});
  constexpr int kThreads = 6;
  constexpr int kPerThread = 25;
  std::vector<std::thread> enqueuers;
  enqueuers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    enqueuers.emplace_back([&scheduler, &ran, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct (table, column) keys so nothing coalesces: every
        // request must execute exactly once.
        scheduler.Enqueue({Name("t", t), Name("c", i),
                           static_cast<ColumnHealth>(i % 3), 0.01 * i,
                           [&ran]() {
                             ran.fetch_add(1);
                             return Status::OK();
                           }});
      }
    });
  }
  for (auto& thread : enqueuers) thread.join();
  scheduler.Drain();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
  const auto counts = scheduler.counts();
  EXPECT_EQ(counts.completed, static_cast<std::uint64_t>(kThreads) *
                                  kPerThread);
  EXPECT_EQ(counts.coalesced, 0u);
}

TEST(BuildSchedulerTest, PauseHoldsAdmissionResumeReleasesIt) {
  std::atomic<int> ran{0};
  BuildScheduler scheduler({.max_inflight = 1, .threads = 1});
  scheduler.Pause();
  scheduler.Enqueue({"t", "x", ColumnHealth::kStale, 0.0, [&ran]() {
                       ran.fetch_add(1);
                       return Status::OK();
                     }});
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(scheduler.counts().queued, 1u);
  scheduler.Resume();
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace equihist
