#ifndef EQUIHIST_STATS_BUILD_SCHEDULER_H_
#define EQUIHIST_STATS_BUILD_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "stats/statistics_shard.h"

namespace equihist {

// Asynchronous statistics-build scheduler with priority admission control
// (DESIGN.md §16): the fleet's answer to "thousands of columns want a
// rebuild, storage can afford a few at a time".
//
// Queue order is driven by column health (DESIGN.md §11) and DML pressure:
//   1. Health class first — kDegraded beats kStale beats kFresh. A column
//      serving the uniform fallback (or nothing) is strictly more urgent
//      than one serving a stale snapshot, which beats a warm-up build.
//   2. Per-table fairness within a class — tables take round-robin turns,
//      so a BuildAll sweep over one huge table cannot starve another
//      table's refreshes of equal urgency.
//   3. DML pressure within a table — highest modified-fraction first.
//
// Admission: at most `max_inflight` builds run at once on the scheduler's
// ThreadPool; the rest wait in the queue. Re-requesting a build that is
// still queued coalesces into the queued entry (severity and pressure are
// raised to the max of the two) instead of queueing twice; a build that
// is already *running* does not absorb new requests — the new
// request queues behind it, because the running build may not reflect the
// DML that motivated the re-request.
//
// Concurrency: every entry point is thread-safe. Completion callbacks run
// on pool threads (or inline on the enqueueing thread when threads == 1,
// which degenerates the scheduler into a deterministic synchronous
// dispatcher — exactly what the priority-order tests pin down).
class BuildScheduler {
 public:
  struct Options {
    // Admission budget: builds running concurrently. Values < 1 are
    // treated as 1.
    std::uint64_t max_inflight = 2;
    // Scheduler pool size (including the dispatching caller, like
    // ThreadPool): 1 runs every build inline on the thread that frees the
    // admission slot — fully deterministic, no thread is ever created.
    std::uint64_t threads = 2;
    // Start with dispatch suspended; builds queue until Resume(). Lets a
    // caller stage a whole workload and then release it in one
    // priority-ordered wave (and makes dispatch order testable).
    bool start_paused = false;
  };

  // One build request. `build` is the work itself (typically a bound
  // EnsureFresh against a shard); everything it references must outlive
  // the scheduler or be kept alive by the closure.
  struct Request {
    std::string table;   // fairness domain
    std::string column;  // (table, column) is the coalescing key
    ColumnHealth health = ColumnHealth::kFresh;
    double pressure = 0.0;  // modified fraction (Health().modified_fraction)
    std::function<Status()> build;
  };

  // `metrics` (optional) receives scheduler counters and queue gauges;
  // it must outlive the scheduler.
  explicit BuildScheduler(const Options& options,
                          metrics::MetricsPlane* metrics = nullptr);

  // Pauses dispatch, waits for inflight builds to finish, and discards
  // anything still queued (their `build` closures never run).
  ~BuildScheduler();

  BuildScheduler(const BuildScheduler&) = delete;
  BuildScheduler& operator=(const BuildScheduler&) = delete;

  // Queues (or coalesces) a request and pumps the admission loop.
  void Enqueue(Request request) EXCLUDES(mu_);

  // Suspends dispatch after the currently inflight builds; queued work
  // waits. Resume() restarts dispatch and pumps.
  void Pause() EXCLUDES(mu_);
  void Resume() EXCLUDES(mu_);

  // Blocks until the queue is empty and nothing is inflight. Do not call
  // while paused with work queued — that never drains; Resume() first.
  void Drain() EXCLUDES(mu_);

  struct Counts {
    std::uint64_t enqueued = 0;   // requests accepted (including coalesced)
    std::uint64_t coalesced = 0;  // requests merged into a queued entry
    std::uint64_t completed = 0;  // builds that returned OK
    std::uint64_t failed = 0;     // builds that returned an error
    std::uint64_t queued = 0;     // currently waiting
    std::uint64_t inflight = 0;   // currently running
  };
  Counts counts() const EXCLUDES(mu_);

  // Failures recorded since the last call, oldest first: ((table, column),
  // status). The internal list is cleared, so each failure is reported
  // once. Whoever enqueues builds reads here which of them failed;
  // StatisticsFleet::BuildAll does not, since it aggregates the shards'
  // own results.
  std::vector<std::pair<std::string, Status>> TakeFailures() EXCLUDES(mu_);

 private:
  // Health maps to a strict class: 0 = degraded, 1 = stale, 2 = fresh.
  static constexpr std::size_t kClasses = 3;
  static std::size_t ClassOf(ColumnHealth health) {
    return kClasses - 1 - static_cast<std::size_t>(health);
  }

  // One priority class: per-table FIFO-of-turns with the pending tables
  // rotating round-robin; each table's deque is kept sorted by descending
  // pressure (stable for equal pressure: FIFO).
  struct ClassQueue {
    std::deque<std::string> table_turns;  // tables with pending work
    std::map<std::string, std::deque<Request>> by_table;
  };

  bool QueueEmptyLocked() const REQUIRES(mu_);
  std::uint64_t QueuedLocked() const REQUIRES(mu_);
  // Removes and returns the next request per the priority policy.
  Request PopNextLocked() REQUIRES(mu_);
  // Inserts into the right class queue, pressure-sorted within its table.
  void InsertLocked(Request request) REQUIRES(mu_);
  // Merges `request` into a queued entry with the same (table, column),
  // if any (consuming its build closure); true when coalesced.
  bool TryCoalesceLocked(Request& request) REQUIRES(mu_);
  void UpdateGaugesLocked() REQUIRES(mu_);
  // The admission loop: admits requests while slots are free. Exactly one
  // thread pumps at a time (`pumping_`), which keeps inline pools from
  // recursing and bounds everyone else's Enqueue latency.
  void Pump() EXCLUDES(mu_);
  void OnBuildDone(const std::string& table, const std::string& column,
                   Status status) EXCLUDES(mu_);

  const Options options_;
  metrics::MetricsPlane* const metrics_;  // may be null
  std::unique_ptr<ThreadPool> pool_;      // null when threads <= 1 (inline)
  mutable Mutex mu_{lockrank::kBuildScheduler};
  CondVar idle_cv_;
  std::array<ClassQueue, kClasses> classes_ GUARDED_BY(mu_);
  std::uint64_t inflight_ GUARDED_BY(mu_) = 0;
  bool paused_ GUARDED_BY(mu_) = false;
  bool pumping_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::uint64_t enqueued_ GUARDED_BY(mu_) = 0;
  std::uint64_t coalesced_ GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ GUARDED_BY(mu_) = 0;
  std::vector<std::pair<std::string, Status>> failures_ GUARDED_BY(mu_);
};

}  // namespace equihist

#endif  // EQUIHIST_STATS_BUILD_SCHEDULER_H_
