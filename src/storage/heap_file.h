#ifndef EQUIHIST_STORAGE_HEAP_FILE_H_
#define EQUIHIST_STORAGE_HEAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace equihist {

class FaultInjector;

// An append-only heap file of fixed-geometry pages, the unit the block
// samplers draw from. Pages are filled densely in append order, so the
// tuple order handed to Append*() *is* the on-disk clustering — layout
// policies (storage/layout.h) decide that order before the file is built.
class HeapFile {
 public:
  explicit HeapFile(const PageConfig& config);

  const PageConfig& config() const { return config_; }
  std::uint64_t page_count() const { return pages_.size(); }
  std::uint64_t tuple_count() const { return tuple_count_; }
  bool empty() const { return tuple_count_ == 0; }

  // Appends one record, opening a new page when the last one is full.
  void Append(Value value);

  // Bulk-append in order. Each page is filled from its chunk of `values`
  // with one fold of the chunk's bounds and one encode (Page::AppendAll).
  void AppendAll(const std::vector<Value>& values);

  // Read access to page `page_id`, charging one page read (and the page's
  // tuples) to `stats` if provided. Returns NotFound for out-of-range ids.
  //
  // With a fault injector attached the read may instead return
  // kUnavailable (injected transient fault) or kDataLoss (lost page, or a
  // corrupted payload caught by the page checksum); successful reads of
  // latency-selected pages stall for the injected delay first. Without an
  // injector reads cannot fail for in-range ids, but each still returns a
  // Result, and ReadPageRetrying adds a retry loop around it. That per-page
  // cost adds up: read one page at a time, a random-layout CVB build's
  // 1,792 pages took 28 µs, against 6 µs through ReadPagesFaultFree
  // (bench_micro BM_NextPages, DESIGN.md §8). Readers of many pages with
  // no injector use ReadPagesFaultFree instead.
  Result<const Page*> ReadPage(std::uint64_t page_id, IoStats* stats) const;

  // How many reads ahead ReadPagesFaultFree prefetches a page's header.
  static constexpr std::size_t kReadAheadPages = 8;

  // The batch read of a file with no fault injector, which cannot fail:
  // appends the pages `page_ids` names to `out` in order and charges
  // `stats`, if provided, what ReadPage charges for each, in one add. The
  // loop prefetches each page's header kReadAheadPages reads ahead.
  // Preconditions: fault_injector() is null and every id is in range.
  void ReadPagesFaultFree(std::span<const std::uint64_t> page_ids,
                          IoStats* stats,
                          std::vector<const Page*>& out) const;

  // ReadPage wrapped in the shared bounded-retry policy: transient faults
  // are re-issued per `policy` (each retry charged to
  // stats->transient_retries); permanent faults return immediately.
  Result<const Page*> ReadPageRetrying(std::uint64_t page_id,
                                       const RetryPolicy& policy,
                                       IoStats* stats) const;

  // Attaches (or clears, with nullptr) a fault injector. The injector must
  // outlive all reads; attaching is not synchronized against concurrent
  // reads, so do it before the file is shared across threads.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // Direct (uncharged) structural access for tests and internal use.
  const Page& page(std::uint64_t page_id) const { return pages_[page_id]; }

 private:
  PageConfig config_;
  std::uint32_t tuples_per_page_;
  std::vector<Page> pages_;
  std::uint64_t tuple_count_ = 0;
  FaultInjector* injector_ = nullptr;
};

}  // namespace equihist

#endif  // EQUIHIST_STORAGE_HEAP_FILE_H_
