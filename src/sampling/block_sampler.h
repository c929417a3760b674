#ifndef EQUIHIST_SAMPLING_BLOCK_SAMPLER_H_
#define EQUIHIST_SAMPLING_BLOCK_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/distribution.h"
#include "storage/io_stats.h"
#include "storage/table.h"

namespace equihist {

// Block-level (page-level) sampling: the Section 4 model. A sampled page
// contributes *all* of its tuples, so g sampled pages yield ~g*b tuples for
// the cost of g page reads — the efficiency the CVB algorithm exploits.
//
// Fault model (DESIGN.md §11): every reader here retries transient faults
// per a RetryPolicy. The one-shot samplers propagate permanent failures as
// typed errors; the incremental sampler CVB builds on instead *skips*
// permanently unreadable pages and replaces them with fresh uniformly-drawn
// pages, charging the skips to IoStats so the caller can enforce a fault
// budget.

// Draws `num_blocks` distinct pages uniformly at random (without
// replacement) and returns all their tuples. Page reads are charged to
// `stats`. Returns InvalidArgument if num_blocks exceeds the page count;
// transient read faults are retried per `retry`, and a page that stays
// unreadable fails the draw with its kDataLoss/kUnavailable status.
Result<std::vector<Value>> SampleBlocksWithoutReplacement(
    const Table& table, std::uint64_t num_blocks, Rng& rng, IoStats* stats,
    const RetryPolicy& retry = {});

// Same but with replacement (a page may be drawn twice and then contributes
// its tuples twice). Matches the with-replacement analysis model.
Result<std::vector<Value>> SampleBlocksWithReplacement(
    const Table& table, std::uint64_t num_blocks, Rng& rng, IoStats* stats,
    const RetryPolicy& retry = {});

// Seed-addressed parallel with-replacement sampler. Draws are partitioned
// into fixed-size spans of kDrawsPerStream consecutive draws; span s is
// generated by its own Rng seeded with DeriveStreamSeed(seed, s), and the
// sampled pages are then read into place concurrently. Because both the
// span layout and each span's stream depend only on (seed, num_blocks),
// the returned tuple vector and the IoStats totals are bit-identical for
// every thread count, including the no-pool sequential path. Pages that
// stay unreadable after retry fail the whole draw (the fixed-size,
// seed-addressed contract leaves no room to substitute blocks).
inline constexpr std::uint64_t kDrawsPerStream = 256;
Result<std::vector<Value>> SampleBlocksWithReplacement(
    const Table& table, std::uint64_t num_blocks, std::uint64_t seed,
    IoStats* stats, ThreadPool* pool, const RetryPolicy& retry = {});

// Incremental without-replacement page sampler: hands out random page ids
// in batches such that no page is ever repeated across batches. This is
// what the CVB algorithm's iterations use — iteration i's fresh blocks R_i
// must be disjoint from the accumulated sample R.
class IncrementalBlockSampler {
 public:
  // Table must outlive the sampler and every page it hands out. The page
  // permutation is a Fisher-Yates shuffle of the seed's stream, and pages
  // are read in its order.
  IncrementalBlockSampler(const Table* table, std::uint64_t seed);

  // Retry policy for transient read faults (default: the shared bounded
  // policy). Set before the first NextPages.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  std::uint64_t pages_remaining() const {
    return permutation_.size() - next_;
  }
  std::uint64_t pages_consumed() const { return next_; }
  // Pages this sampler gave up on (permanently unreadable after retry),
  // cumulative across batches. Each was replaced by the next page of the
  // permutation when one remained.
  std::uint64_t pages_skipped() const { return pages_skipped_; }

  // Returns the next min(num_blocks, pages_remaining()) fresh *readable*
  // pages, in permutation order, charging I/O to `stats`. Returns no pages
  // once the file is exhausted. The pages are views into the table.
  //
  // Fault handling: transient faults are retried per the retry policy;
  // a page that stays unreadable is skipped (stats->pages_skipped,
  // plus stats->pages_corrupt for checksum failures) and the batch is
  // topped up from the tail of the permutation. Because the permutation is
  // a uniform random order of all pages, the returned batch remains a
  // uniform without-replacement sample of the *readable* pages — the
  // resample-uniformity argument of DESIGN.md §11.
  std::vector<const Page*> NextPages(std::uint64_t num_blocks,
                                     IoStats* stats);

  // NextPages, with the pages' tuples decoded out in page order. If
  // `page_offsets` is non-null it receives the start offset of each page's
  // tuples within the returned vector (so callers can stratify by block).
  std::vector<Value> NextBatch(std::uint64_t num_blocks, IoStats* stats,
                               std::vector<std::size_t>* page_offsets = nullptr);

 private:
  const Table* table_;
  RetryPolicy retry_{};
  std::vector<std::uint64_t> permutation_;  // random order of all page ids
  std::uint64_t next_ = 0;
  std::uint64_t pages_skipped_ = 0;
};

}  // namespace equihist

#endif  // EQUIHIST_SAMPLING_BLOCK_SAMPLER_H_
