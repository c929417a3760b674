#ifndef EQUIHIST_QUERY_INDEX_H_
#define EQUIHIST_QUERY_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "data/workload.h"
#include "storage/io_stats.h"
#include "storage/table.h"

namespace equihist {

// A dense ordered secondary index over a table's single attribute: sorted
// (value, page, slot) entries packed into fixed-capacity leaf "pages" so
// index I/O can be charged realistically. This is the alternative access
// path the optimizer weighs against a full scan — the decision the paper's
// statistics exist to inform.
class OrderedIndex {
 public:
  struct Entry {
    Value value;
    std::uint32_t page_id;
    std::uint32_t slot;
  };

  // Builds by scanning the table once (the index build is charged to
  // `build_stats` if provided). `entries_per_leaf` models the leaf fan-out
  // (8 KB / 16 B entry = 512 by default). Transient read faults are
  // retried per `policy` (charged to build_stats->transient_retries); a
  // page that stays unreadable fails the build with that page's status —
  // an index over partial data would silently under-count every range.
  static Result<OrderedIndex> Build(const Table& table,
                                    IoStats* build_stats = nullptr,
                                    std::uint32_t entries_per_leaf = 512,
                                    const RetryPolicy& policy = {});

  std::uint64_t entry_count() const { return entries_.size(); }
  std::uint32_t entries_per_leaf() const { return entries_per_leaf_; }
  std::uint64_t leaf_count() const {
    return (entries_.size() + entries_per_leaf_ - 1) / entries_per_leaf_;
  }

  // Executes "lo < X <= hi" through the index against `table`: charges the
  // touched index leaves and the fetched table pages (each distinct
  // matching page once — a block-nested fetch with a page cache) to
  // `stats`, and returns the number of matching tuples. Transient read
  // errors are retried per `policy` (charged to stats->transient_retries);
  // a page that stays unreadable fails the scan with that page's
  // kDataLoss/kUnavailable status.
  Result<std::uint64_t> RangeScanChecked(const Table& table,
                                         const RangeQuery& query,
                                         IoStats* stats,
                                         const RetryPolicy& policy = {}) const;

  // Index-only count (no table fetch): charges only leaf reads. Used when
  // the query needs COUNT rather than tuples.
  std::uint64_t RangeCount(const RangeQuery& query, IoStats* stats) const;

 private:
  OrderedIndex(std::vector<Entry> entries, std::uint32_t entries_per_leaf)
      : entries_(std::move(entries)), entries_per_leaf_(entries_per_leaf) {}

  // [first, last) entry positions matching the query.
  std::pair<std::uint64_t, std::uint64_t> EntryRange(
      const RangeQuery& query) const;

  void ChargeLeaves(std::uint64_t first, std::uint64_t last,
                    IoStats* stats) const;

  std::vector<Entry> entries_;  // sorted by (value, page, slot)
  std::uint32_t entries_per_leaf_;
};

}  // namespace equihist

#endif  // EQUIHIST_QUERY_INDEX_H_
