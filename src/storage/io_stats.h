#ifndef EQUIHIST_STORAGE_IO_STATS_H_
#define EQUIHIST_STORAGE_IO_STATS_H_

#include <cstdint>

namespace equihist {

// Access-path cost accounting. The paper's central efficiency argument is
// that reading one tuple off disk costs as much as reading its whole block,
// so every access path in this library charges its I/O here. Benchmarks
// report pages_read as the proxy for the paper's "number of disk blocks
// sampled" (Figure 4) and tuples_read for the logical sample size.
struct IoStats {
  std::uint64_t pages_read = 0;
  std::uint64_t tuples_read = 0;

  // -- Fault accounting -----------------------------------------------------
  // Reads that failed with a transient error and were re-issued by the
  // retry layer (each retry counts once, successful or not).
  std::uint64_t transient_retries = 0;
  // Pages given up on after retry: permanently lost, corrupt, or transient
  // past the retry budget. The sampling paths replace these with fresh
  // uniformly-drawn pages where possible; the count is what the fault
  // budget is charged against.
  std::uint64_t pages_skipped = 0;
  // Subset of pages_skipped that failed the payload checksum.
  std::uint64_t pages_corrupt = 0;

  void Reset() { *this = IoStats{}; }

  IoStats& operator+=(const IoStats& other) {
    pages_read += other.pages_read;
    tuples_read += other.tuples_read;
    transient_retries += other.transient_retries;
    pages_skipped += other.pages_skipped;
    pages_corrupt += other.pages_corrupt;
    return *this;
  }
};

}  // namespace equihist

#endif  // EQUIHIST_STORAGE_IO_STATS_H_
