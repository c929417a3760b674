#include "query/index.h"

#include <algorithm>
#include <unordered_set>

namespace equihist {

Result<OrderedIndex> OrderedIndex::Build(const Table& table,
                                         IoStats* build_stats,
                                         std::uint32_t entries_per_leaf,
                                         const RetryPolicy& policy) {
  if (entries_per_leaf == 0) {
    return Status::InvalidArgument("entries_per_leaf must be positive");
  }
  if (table.tuple_count() == 0) {
    return Status::FailedPrecondition("cannot index an empty table");
  }
  std::vector<Entry> entries;
  entries.reserve(table.tuple_count());
  for (std::uint64_t page_id = 0; page_id < table.page_count(); ++page_id) {
    EQUIHIST_ASSIGN_OR_RETURN(
        const Page* page,
        table.file().ReadPageRetrying(page_id, policy, build_stats));
    for (std::uint32_t slot = 0; slot < page->size(); ++slot) {
      entries.push_back(Entry{page->at(slot),
                              static_cast<std::uint32_t>(page_id), slot});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.value != b.value) return a.value < b.value;
              if (a.page_id != b.page_id) return a.page_id < b.page_id;
              return a.slot < b.slot;
            });
  return OrderedIndex(std::move(entries), entries_per_leaf);
}

std::pair<std::uint64_t, std::uint64_t> OrderedIndex::EntryRange(
    const RangeQuery& query) const {
  const auto first = std::upper_bound(
      entries_.begin(), entries_.end(), query.lo,
      [](Value v, const Entry& e) { return v < e.value; });
  const auto last = std::upper_bound(
      entries_.begin(), entries_.end(), query.hi,
      [](Value v, const Entry& e) { return v < e.value; });
  return {static_cast<std::uint64_t>(first - entries_.begin()),
          static_cast<std::uint64_t>(last - entries_.begin())};
}

void OrderedIndex::ChargeLeaves(std::uint64_t first, std::uint64_t last,
                                IoStats* stats) const {
  if (stats == nullptr || last <= first) return;
  const std::uint64_t first_leaf = first / entries_per_leaf_;
  const std::uint64_t last_leaf = (last - 1) / entries_per_leaf_;
  stats->pages_read += last_leaf - first_leaf + 1;
}

std::uint64_t OrderedIndex::RangeCount(const RangeQuery& query,
                                       IoStats* stats) const {
  const auto [first, last] = EntryRange(query);
  ChargeLeaves(first, last, stats);
  return last - first;
}

Result<std::uint64_t> OrderedIndex::RangeScanChecked(
    const Table& table, const RangeQuery& query, IoStats* stats,
    const RetryPolicy& policy) const {
  const auto [first, last] = EntryRange(query);
  ChargeLeaves(first, last, stats);
  // Fetch each distinct matching table page once (modelling a page cache
  // large enough for the result's working set).
  std::unordered_set<std::uint32_t> fetched;
  std::uint64_t matches = 0;
  for (std::uint64_t i = first; i < last; ++i) {
    const Entry& entry = entries_[i];
    if (fetched.insert(entry.page_id).second) {
      EQUIHIST_ASSIGN_OR_RETURN(
          const Page* page,
          table.file().ReadPageRetrying(entry.page_id, policy, stats));
      // ReadPage charged the page plus all its tuples; the scan only
      // examines the indexed slot, so adjust tuples_read to one per match.
      if (stats != nullptr) {
        stats->tuples_read -= page->size();
      }
    }
    if (stats != nullptr) stats->tuples_read += 1;
    ++matches;
  }
  return matches;
}

}  // namespace equihist
