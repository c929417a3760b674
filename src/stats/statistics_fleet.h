#ifndef EQUIHIST_STATS_STATISTICS_FLEET_H_
#define EQUIHIST_STATS_STATISTICS_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "stats/build_scheduler.h"
#include "stats/statistics_shard.h"
#include "storage/table.h"

namespace equihist {

// A fleet of StatisticsShards behind one facade (DESIGN.md §16): columns
// hash-partition across `shards` independent StatisticsShard instances
// (FNV-1a of the column name, the hash the shard itself uses for build
// seeds), so column-level mutual exclusion, serving caches, and DML
// counters shard too — writers to different columns on different shards
// never touch the same mutex.
//
// On top of the shards the fleet adds:
//   - a batched front-end: EstimateBatch runs the shard's own batch loop
//     on the calling thread, pinning each column once through the
//     lock-free serving cache of the shard that owns it;
//   - an async BuildScheduler with priority admission (degraded > stale >
//     fresh, then DML pressure) on a ThreadPool;
//   - the fleetwire frame protocol (ServeFrame) for estimate and
//     build-control messages;
//   - a lock-free MetricsPlane per shard plus a fleet-level plane, all
//     exported by MetricsJson().
//
// Determinism: build seeds depend only on (options.shard.seed, column,
// generation) — never on the shard index — so a fleet of any size serves
// estimates bitwise-identical to a single StatisticsManager with the same
// options (pinned by FleetMatchesSingleManagerBitwise in the tests).
class StatisticsFleet {
 public:
  struct Options {
    // Number of independent shards; values < 1 are treated as 1.
    std::uint64_t shards = 4;
    // Applied to every shard verbatim (the seed is shared by design — see
    // the determinism note above).
    StatisticsShard::Options shard{};
    BuildScheduler::Options scheduler{};
  };

  explicit StatisticsFleet(const Options& options);

  std::size_t shard_count() const { return shards_.size(); }
  // The shard that owns `column` (stable for the fleet's lifetime).
  std::size_t ShardIndex(const std::string& column) const;
  StatisticsShard& shard(std::size_t index) { return *shards_[index]; }
  const StatisticsShard& shard(std::size_t index) const {
    return *shards_[index];
  }

  // -- Serving (routes to the owning shard) --------------------------------

  Result<double> EstimateRange(const std::string& column, const Table& table,
                               const RangeQuery& query);

  // Cross-shard batch: the loop of StatisticsShard::EstimateBatch, with
  // each column resolved through its owning shard, so it has the same
  // contract, first-error behavior included. Each shard the batch touches
  // records its part as one batch; the fleet plane records the whole.
  Status EstimateBatch(const Table& table,
                       std::span<const BatchEstimateRequest> requests,
                       BatchEstimateResult* result);

  // -- Builds & DML (route to the owning shard) ----------------------------

  Result<std::shared_ptr<const ColumnStatistics>> EnsureFresh(
      const std::string& column, const Table& table);
  // Partitions `columns` across shards and aggregates the per-shard
  // sweeps; `failed` is reported in input order.
  StatisticsShard::BuildAllResult BuildAll(
      const std::vector<std::string>& columns, const Table& table);
  void RecordModifications(const std::string& column, std::uint64_t count);
  void RecordInsert(const std::string& column, Value value);
  void RecordDelete(const std::string& column, Value value);
  ColumnHealthReport Health(const std::string& column) const;
  bool Drop(const std::string& column);
  bool Has(const std::string& column) const;
  std::size_t size() const;

  // -- Async builds --------------------------------------------------------

  // Queues an async freshness build for `column` with the scheduler,
  // classed by the column's current health and DML pressure. `table_name`
  // is the scheduler's fairness domain; `table` must outlive the build
  // (i.e. stay alive until DrainBuilds() or destruction).
  void ScheduleBuild(const std::string& table_name, const std::string& column,
                     const Table& table);
  void DrainBuilds() { scheduler_->Drain(); }
  BuildScheduler& scheduler() { return *scheduler_; }

  // -- Wire protocol -------------------------------------------------------

  // Serves one fleetwire request frame against `table` and returns the
  // encoded response frame. Estimate errors and malformed frames surface
  // as the returned Status; build-control outcomes travel *inside* the
  // response frame. Response-typed input frames are rejected.
  Result<std::vector<std::uint8_t>> ServeFrame(
      std::span<const std::uint8_t> bytes, const Table& table);

  // -- Observability -------------------------------------------------------

  const metrics::MetricsPlane& fleet_metrics() const { return metrics_; }
  // {"fleet": <fleet plane>, "shards": [{"size", "stale", "metrics"}...]}
  std::string MetricsJson() const;

 private:
  metrics::MetricsPlane metrics_;  // fleet-level: batches, wire, scheduler
  std::vector<std::unique_ptr<StatisticsShard>> shards_;
  std::unique_ptr<BuildScheduler> scheduler_;
};

}  // namespace equihist

#endif  // EQUIHIST_STATS_STATISTICS_FLEET_H_
