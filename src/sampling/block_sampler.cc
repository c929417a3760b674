#include "sampling/block_sampler.h"

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

// Outcome of the parallel read of one page-id list.
struct ParallelReadResult {
  std::vector<Value> values;            // every page's tuples, in id order
  std::uint64_t pages_failed = 0;       // permanently unreadable
  std::uint64_t pages_corrupt = 0;      // subset: checksum failures
};

// Reads `page_ids` into a freshly sized vector, fanning the page reads out
// across the pool with per-page transient retry. Each page's destination
// offset is precomputed from the (uncharged) page sizes, so the output is
// byte-identical to a sequential read loop; per-shard IoStats are summed
// in shard order afterwards so the charged totals match too. Pages that
// stay unreadable leave their slots unwritten and are counted in the
// result; the caller fails the read.
ParallelReadResult ReadPagesParallel(const Table& table,
                                     const std::vector<std::uint64_t>& page_ids,
                                     const RetryPolicy& retry, IoStats* stats,
                                     ThreadPool* pool) {
  std::vector<std::size_t> offsets(page_ids.size() + 1, 0);
  for (std::size_t p = 0; p < page_ids.size(); ++p) {
    offsets[p + 1] = offsets[p] + table.file().page(page_ids[p]).size();
  }
  ParallelReadResult result;
  result.values.resize(offsets.back());
  const std::size_t shards = pool == nullptr ? 1 : pool->size();
  std::vector<IoStats> shard_stats(shards);
  // 0 = ok, 1 = failed, 2 = failed with checksum mismatch. Written by one
  // shard each, read after the join.
  std::vector<std::uint8_t> failed(page_ids.size(), 0);
  auto read_range = [&](std::size_t lo, std::size_t hi, std::size_t s) {
    IoStats& local = shard_stats[s];
    for (std::size_t p = lo; p < hi; ++p) {
      Result<const Page*> page =
          table.file().ReadPageRetrying(page_ids[p], retry, &local);
      if (!page.ok()) {
        failed[p] = IsChecksumFailure(page.status()) ? 2 : 1;
        continue;
      }
      (*page)->DecodeTo(std::span<Value>(result.values).subspan(offsets[p]));
    }
  };
  if (pool == nullptr || shards <= 1) {
    read_range(0, page_ids.size(), 0);
  } else {
    pool->ParallelFor(0, page_ids.size(), shards, read_range);
  }
  if (stats != nullptr) {
    for (const IoStats& s : shard_stats) *stats += s;
  }
  for (const std::uint8_t f : failed) {
    result.pages_failed += f != 0 ? 1 : 0;
    result.pages_corrupt += f == 2 ? 1 : 0;
  }
  return result;
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

Result<std::vector<Value>> SampleBlocksWithReplacement(const Table& table,
                                                       std::uint64_t num_blocks,
                                                       Rng& rng,
                                                       IoStats* stats,
                                                       const RetryPolicy& retry) {
  const std::uint64_t pages = table.page_count();
  if (pages == 0) {
    return Status::InvalidArgument("cannot sample from an empty table");
  }
  std::vector<Value> out;
  out.reserve(num_blocks * table.tuples_per_page());
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    EQUIHIST_RETURN_IF_ERROR(
        AppendPage(table, rng.NextBounded(pages), retry, stats, out));
  }
  return out;
}

Result<std::vector<Value>> SampleBlocksWithReplacement(
    const Table& table, std::uint64_t num_blocks, std::uint64_t seed,
    IoStats* stats, ThreadPool* pool, const RetryPolicy& retry) {
  const std::uint64_t pages = table.page_count();
  if (pages == 0) {
    return Status::InvalidArgument("cannot sample from an empty table");
  }
  // Phase 1: choose page ids. Spans of kDrawsPerStream consecutive draws
  // each come from their own SplitMix-derived stream, so the id vector
  // depends only on (seed, num_blocks) — never on the pool.
  std::vector<std::uint64_t> ids(num_blocks);
  const std::size_t streams = static_cast<std::size_t>(
      (num_blocks + kDrawsPerStream - 1) / kDrawsPerStream);
  auto draw_span = [&](std::size_t s) {
    Rng rng(DeriveStreamSeed(seed, s));
    const std::size_t lo = s * kDrawsPerStream;
    const std::size_t hi =
        std::min<std::size_t>(lo + kDrawsPerStream, num_blocks);
    for (std::size_t i = lo; i < hi; ++i) ids[i] = rng.NextBounded(pages);
  };
  if (pool == nullptr || pool->size() <= 1 || streams <= 1) {
    for (std::size_t s = 0; s < streams; ++s) draw_span(s);
  } else {
    pool->ParallelFor(0, streams, pool->size(),
                      [&](std::size_t lo, std::size_t hi, std::size_t) {
                        for (std::size_t s = lo; s < hi; ++s) draw_span(s);
                      });
  }
  // Phase 2: read the chosen pages concurrently. The seed-addressed
  // contract promises exactly these draws, so unreadable pages fail the
  // sample rather than shrink it.
  ParallelReadResult read =
      ReadPagesParallel(table, ids, retry, stats, pool);
  if (read.pages_failed > 0) {
    if (stats != nullptr) {
      stats->pages_skipped += read.pages_failed;
      stats->pages_corrupt += read.pages_corrupt;
    }
    return Status::DataLoss(
        std::to_string(read.pages_failed) +
        " of the sampled blocks are permanently unreadable (" +
        std::to_string(read.pages_corrupt) + " corrupt)");
  }
  return std::move(read.values);
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
  pages.reserve(std::min(num_blocks, pages_remaining()));
  // Every skipped page is replaced by the next permutation entry: the
  // permutation is a uniform random order of all pages, so the pages
  // delivered remain a uniform without-replacement sample of the readable
  // ones.
  while (pages.size() < num_blocks && pages_remaining() > 0) {
    Result<const Page*> page = table_->file().ReadPageRetrying(
        permutation_[next_++], retry_, stats);
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
