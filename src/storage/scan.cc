#include "storage/scan.h"

#include <span>

namespace equihist {

Result<std::vector<Value>> FullScanChecked(const Table& table, IoStats* stats,
                                           ThreadPool* pool,
                                           const RetryPolicy& policy) {
  const std::uint64_t pages = table.page_count();
  // Dense packing: page p starts at tuple p * tuples_per_page.
  const std::uint32_t tpp = table.tuples_per_page();
  std::vector<Value> values(table.tuple_count());
  const auto page_values = [&](std::uint64_t page_id) {
    return std::span<Value>(values).subspan(page_id * tpp);
  };
  if (pool == nullptr || pool->size() <= 1) {
    for (std::uint64_t page_id = 0; page_id < pages; ++page_id) {
      EQUIHIST_ASSIGN_OR_RETURN(
          const Page* page,
          table.file().ReadPageRetrying(page_id, policy, stats));
      page->DecodeTo(page_values(page_id));
    }
    return values;
  }

  const std::size_t shards = pool->size();
  std::vector<IoStats> shard_stats(shards);
  // First failing page per shard; the lowest page id wins afterwards so
  // the reported error does not depend on thread scheduling.
  std::vector<std::uint64_t> failed_page(shards, pages);
  std::vector<Status> failed_status(shards);
  pool->ParallelFor(
      0, pages, shards, [&](std::size_t lo, std::size_t hi, std::size_t s) {
        IoStats& local = shard_stats[s];
        for (std::size_t page_id = lo; page_id < hi; ++page_id) {
          Result<const Page*> page =
              table.file().ReadPageRetrying(page_id, policy, &local);
          if (!page.ok()) {
            if (page_id < failed_page[s]) {
              failed_page[s] = page_id;
              failed_status[s] = page.status();
            }
            continue;
          }
          (*page)->DecodeTo(page_values(page_id));
        }
      });
  if (stats != nullptr) {
    for (const IoStats& s : shard_stats) *stats += s;
  }
  std::size_t worst = shards;
  for (std::size_t s = 0; s < shards; ++s) {
    if (failed_page[s] < pages &&
        (worst == shards || failed_page[s] < failed_page[worst])) {
      worst = s;
    }
  }
  if (worst != shards) return failed_status[worst];
  return values;
}

}  // namespace equihist
