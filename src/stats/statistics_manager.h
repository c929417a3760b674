#ifndef EQUIHIST_STATS_STATISTICS_MANAGER_H_
#define EQUIHIST_STATS_STATISTICS_MANAGER_H_

#include "stats/statistics_shard.h"

namespace equihist {

// The historical single-process entry point (DESIGN.md §16): one shard
// holding every column — construction, build/refresh, DML accounting,
// the lock-free serving path, degraded serving, install and health.
//
// Multi-shard deployments hold a StatisticsFleet
// (stats/statistics_fleet.h), which hash-partitions columns across many
// shards and adds the async BuildScheduler and the wire protocol on top
// of the same shard type and the same batch loop.
using StatisticsManager = StatisticsShard;

}  // namespace equihist

#endif  // EQUIHIST_STATS_STATISTICS_MANAGER_H_
