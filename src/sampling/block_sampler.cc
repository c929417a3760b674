#include "sampling/block_sampler.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>

namespace equihist {
namespace {

// Reads one page with retry and appends its tuples. Permanent failures
// propagate as the page's typed status.
Status AppendPage(const Table& table, std::uint64_t page_id,
                  const RetryPolicy& retry, IoStats* stats,
                  std::vector<Value>& out) {
  EQUIHIST_ASSIGN_OR_RETURN(
      const Page* page, table.file().ReadPageRetrying(page_id, retry, stats));
  const std::size_t first = out.size();
  out.resize(first + page->size());
  page->DecodeTo(std::span<Value>(out).subspan(first));
  return Status::OK();
}

// A permanent read failure caused by a checksum mismatch (a corrupt page)
// rather than a lost one.
bool IsChecksumFailure(const Status& status) {
  return status.code() == StatusCode::kDataLoss &&
         status.message().find("checksum") != std::string::npos;
}

}  // namespace

Result<std::vector<Value>> SampleBlocksWithoutReplacement(
    const Table& table, std::uint64_t num_blocks, Rng& rng, IoStats* stats,
    const RetryPolicy& retry) {
  const std::uint64_t pages = table.page_count();
  if (num_blocks > pages) {
    return Status::InvalidArgument(
        "num_blocks exceeds page count for block sampling without "
        "replacement");
  }
  // Partial Fisher-Yates over the page-id array: O(pages) space, O(blocks)
  // time after setup. Page counts are ~n/b, small enough that the id array
  // is cheap relative to the table itself.
  std::vector<std::uint64_t> ids(pages);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<Value> out;
  out.reserve(num_blocks * table.tuples_per_page());
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    const std::uint64_t j = i + rng.NextBounded(pages - i);
    std::swap(ids[i], ids[j]);
    EQUIHIST_RETURN_IF_ERROR(AppendPage(table, ids[i], retry, stats, out));
  }
  return out;
}

IncrementalBlockSampler::IncrementalBlockSampler(const Table* table,
                                                 std::uint64_t seed)
    : table_(table), permutation_(table->page_count()) {
  assert(table_ != nullptr);
  std::iota(permutation_.begin(), permutation_.end(), 0);
  Rng rng(seed);
  for (std::size_t i = permutation_.size(); i > 1; --i) {
    const std::uint64_t j = rng.NextBounded(i);
    std::swap(permutation_[i - 1], permutation_[j]);
  }
}

std::vector<const Page*> IncrementalBlockSampler::NextPages(
    std::uint64_t num_blocks, IoStats* stats) {
  std::vector<const Page*> pages;
  const std::uint64_t take = std::min(num_blocks, pages_remaining());
  pages.reserve(take);
  const HeapFile& file = table_->file();
  if (file.fault_injector() == nullptr) {
    // No read can fail: the batch is the next `take` ids, read in one loop.
    file.ReadPagesFaultFree(std::span(permutation_).subspan(next_, take),
                            stats, pages);
    next_ += take;
    return pages;
  }
  // Every skipped page is replaced by the next permutation entry: the
  // permutation is a uniform random order of all pages, so the pages
  // delivered remain a uniform without-replacement sample of the readable
  // ones.
  while (pages.size() < num_blocks && pages_remaining() > 0) {
    Result<const Page*> page =
        file.ReadPageRetrying(permutation_[next_++], retry_, stats);
    if (page.ok()) {
      pages.push_back(*page);
      continue;
    }
    ++pages_skipped_;
    if (stats != nullptr) {
      ++stats->pages_skipped;
      if (IsChecksumFailure(page.status())) ++stats->pages_corrupt;
    }
  }
  return pages;
}

std::vector<Value> IncrementalBlockSampler::NextBatch(
    std::uint64_t num_blocks, IoStats* stats,
    std::vector<std::size_t>* page_offsets) {
  const std::vector<const Page*> pages = NextPages(num_blocks, stats);
  std::size_t tuples = 0;
  for (const Page* page : pages) tuples += page->size();
  std::vector<Value> values(tuples);
  if (page_offsets != nullptr) page_offsets->clear();
  std::size_t first = 0;
  for (const Page* page : pages) {
    if (page_offsets != nullptr) page_offsets->push_back(first);
    page->DecodeTo(std::span<Value>(values).subspan(first));
    first += page->size();
  }
  return values;
}

}  // namespace equihist
