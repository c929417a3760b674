#ifndef EQUIHIST_STORAGE_SCAN_H_
#define EQUIHIST_STORAGE_SCAN_H_

#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "data/distribution.h"
#include "storage/io_stats.h"
#include "storage/table.h"

namespace equihist {

// Full sequential scan: reads every page, charging all I/O to `stats`, and
// returns the values in page order. This is the cost baseline the sampling
// access paths are measured against (a perfect histogram requires exactly
// this scan plus a sort).
//
// With a pool, page ranges are read concurrently into precomputed offsets
// (pages are densely packed, so every page's destination is known up
// front); output and charged IoStats are identical for any thread count.
// Transient read errors are retried per `policy` (charged to
// stats->transient_retries); a page that stays unreadable fails the scan
// with the page's kDataLoss/kUnavailable status — by the lowest failing
// page id, so the error is deterministic at any thread count. A full scan
// cannot substitute another page for a lost one, so unlike the block
// samplers it has no resample path.
Result<std::vector<Value>> FullScanChecked(const Table& table, IoStats* stats,
                                           ThreadPool* pool = nullptr,
                                           const RetryPolicy& policy = {});

}  // namespace equihist

#endif  // EQUIHIST_STORAGE_SCAN_H_
