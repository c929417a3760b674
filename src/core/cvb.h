#ifndef EQUIHIST_CORE_CVB_H_
#define EQUIHIST_CORE_CVB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/compressed_histogram.h"
#include "core/histogram.h"
#include "sampling/sample.h"
#include "sampling/schedule.h"
#include "storage/io_stats.h"
#include "storage/table.h"

namespace equihist {

// The paper's CVB algorithm (Cross-Validation based Block sampling,
// Section 4.2): adaptive block-level sampling whose stopping rule is a
// cross-validation test rather than a distributional assumption.
//
//   1. Compute the record-level sample size r from (n, f, k, gamma) via
//      Theorem 4 / Corollary 1, and the initial block budget g0 = r / b.
//   2. Sample g0 random blocks into the accumulated sample R and build an
//      equi-height histogram H0 from R.
//   3. Repeat: draw g_i fresh random blocks R_i (stepping schedule);
//      partition R_i with H_{i-1}'s separators and measure the deviation;
//      then merge R_i into R and rebuild H_i. Stop when the measured
//      deviation is below f * |R_i| / k.
//
// When the data in blocks is uncorrelated, the very first validation
// passes and the cost matches record-level bounds at block prices; when
// blocks are correlated the validation keeps failing and the algorithm
// transparently samples more (Figures 5 and 7).

// Which deviation statistic drives the stopping rule.
enum class CvbValidationMetric {
  // delta_S of Definition 3 compared against f*|S|/k. Exact match with the
  // paper's Step 4(b)/5 but ill-defined under heavy duplication: the bucket
  // holding a value with multiplicity > n/k never stops deviating.
  kRelativeDeviation,
  // The duplicate-tolerant fractional max error f' of Definition 4,
  // compared against f directly — the paper's Section 5 stopping rule and
  // the default. Each separator segment only needs *relative* accuracy f,
  // so heavy values converge as fast as everything else; the cost is that
  // segments claiming very little mass get large relative noise, making
  // the test somewhat conservative.
  kFractionalMaxError,
  // Claimed-count deviation: partition the validation sample with the
  // current separators and compare against the histogram's claimed counts
  // scaled to the sample size, in units of the ideal bucket s/k —
  // max_j |S_j - claimed_j * s/n| < f * s/k. Equivalent to Definition 3 on
  // duplicate-free data (claimed ~ n/k) and uniformly scaled like
  // Delta_max, but it demands a value with population share p be counted
  // to within f*n/k, which needs ~p(1-p) k^2/f^2 samples — impractical for
  // skewed columns. Use on (near-)duplicate-free data only.
  kClaimedDeviation,
};

// Which tuples of each fresh block batch feed the validation statistic
// (the "twists" discussed at the end of Section 4.2). All tuples are
// always merged into R afterwards.
enum class CvbValidationStyle {
  kAllTuples,        // validate with every tuple of R_i (default)
  kOneTuplePerBlock, // validate with one random tuple per fresh block
};

// How the initial block batch g0 is chosen.
enum class CvbInitialBudget {
  // 5 * sqrt(n) tuples, the stepping the paper's SQL Server experiments
  // used (Section 7.1): start small and let cross-validation find the
  // empirical convergence point, which is usually far below the
  // conservative bound. The default.
  kPaperSqrtN,
  // g0 = r / b with r from Theorem 4 / Corollary 1 — the Section 4.2
  // formulation. Conservative: on uncorrelated layouts the first
  // validation passes almost surely, at the price of a much larger
  // up-front sample.
  kTheorem4,
};

struct CvbOptions {
  std::uint64_t k = 600;      // histogram buckets (SQL Server's page holds 600)
  double f = 0.1;             // target relative max error
  double gamma = 0.01;        // failure probability fed to Theorem 4
  CvbInitialBudget initial_budget = CvbInitialBudget::kPaperSqrtN;
  ScheduleSpec schedule;      // batch stepping; kDoubling by default
  // The "more aggressive" adaptation sketched at the end of Section 4.2:
  // when enabled, the next batch size is chosen from the last observed
  // validation error instead of the fixed schedule —
  //   g_{i+1} = accumulated_blocks * clamp((err/f)^2 - 1, 1/4, 2),
  // i.e. fine-grained steps when the error is already near the target and
  // up to 2x-accumulated jumps when it is far above it. The paper gives no
  // formula; this realization is documented in DESIGN.md and compared in
  // bench_ablation_schedule.
  bool error_adaptive_stepping = false;
  CvbValidationMetric metric = CvbValidationMetric::kFractionalMaxError;
  CvbValidationStyle style = CvbValidationStyle::kAllTuples;
  std::uint64_t seed = 1234;
  // Hard cap on iterations; the doubling schedule exhausts any table in
  // O(log(pages)) iterations so this is a safety net, not a tuning knob.
  std::uint64_t max_iterations = 64;
  // Override for the initial block batch g0 (0 = derive from Theorem 4).
  // Used by the schedule-ablation bench to start from 5*sqrt(n) tuples.
  std::uint64_t initial_blocks_override = 0;
  // Worker threads for the sorts of batches too wide to count: 0 = one per
  // hardware thread, 1 = fully sequential (no pool is created); larger
  // values are clamped to the hardware thread count (the sorts are
  // CPU-bound, so over-subscription strictly regresses). Histograms are bit-identical for every setting — the
  // parallel stages shard work by problem size, not thread count, and all
  // RNG streams stay sequential.
  std::uint64_t threads = 0;
  // Fault tolerance (DESIGN.md §11). Transient read faults are retried per
  // `retry`; blocks that stay unreadable are skipped and replaced with
  // fresh uniformly-drawn blocks (the sampler's resample path, which keeps
  // the accumulated sample uniform over the readable pages). The build
  // aborts with kDataLoss once more than `max_skipped_blocks` blocks have
  // been given up on — a budget on how much of the table may silently be
  // missing from the sample.
  RetryPolicy retry{};
  std::uint64_t max_skipped_blocks = 64;
  // When the table is exhausted before the validation passes and *no*
  // blocks were skipped, the accumulated sample is the whole table and the
  // histogram is exact — by default that is returned as a success with
  // exhausted_table set. Set false to demand convergence-by-validation and
  // get kResourceExhausted instead. Exhaustion with skipped blocks always
  // returns kResourceExhausted: the histogram would be silently missing
  // the unreadable pages' tuples.
  bool allow_exhaustive_fallback = true;
};

struct CvbIterationLog {
  std::uint64_t iteration = 0;
  std::uint64_t fresh_blocks = 0;       // blocks drawn this iteration
  std::uint64_t fresh_tuples = 0;
  std::uint64_t accumulated_tuples = 0; // |R| after the merge
  double validation_error = 0.0;        // measured statistic (normalized)
  double threshold = 0.0;               // pass threshold it was compared to
  bool passed = false;
};

struct CvbResult {
  Histogram histogram;            // built from the final accumulated sample
  bool converged = false;         // stopping rule fired (vs. table exhausted)
  bool exhausted_table = false;   // sampled every page (histogram is exact)
  std::uint64_t iterations = 0;
  std::uint64_t blocks_sampled = 0;
  // Blocks permanently unreadable after retry, each replaced by a fresh
  // uniformly-drawn block (also in io.pages_skipped). Zero on healthy
  // storage.
  std::uint64_t blocks_skipped = 0;
  std::uint64_t tuples_sampled = 0;
  double sampling_fraction = 0.0; // tuples_sampled / n
  IoStats io{};
  // Statistics collected from the accumulated sample (Section 7.1 notes
  // 3-4): distinct values seen (D), values seen once (f_1), estimated
  // density, and the values whose sample multiplicity exceeded r/k
  // (candidate compressed-histogram singletons, counts scaled to n). D and
  // f_1 are what the paper's distinct-value estimator reads; the whole
  // frequency profile is FrequencyProfile::FromSorted(sample.view()).
  std::uint64_t sample_distinct = 0;
  std::uint64_t sample_singletons = 0;
  double density_estimate = 0.0;
  std::vector<CompressedHistogram::Singleton> heavy_hitters{};
  std::vector<CvbIterationLog> log{};
  // The final accumulated sample R the histogram and statistics came from,
  // for callers that build more from it (BuildStatisticsWithBackend's other
  // backends). Move it out rather than copy it.
  Sample sample{};
};

// Runs CVB over `table`. Returns InvalidArgument for bad options. If the
// table is exhausted before the validation passes and no blocks were
// skipped, the result carries the exact histogram with exhausted_table =
// true and converged = false (unless options.allow_exhaustive_fallback is
// off — then kResourceExhausted). Exhaustion after skips, or a skip count
// above options.max_skipped_blocks, fails with a typed error whose message
// carries the blocks-read / blocks-skipped accounting.
// When `pool` is non-null it is used for the parallel stages (and
// options.threads is ignored); otherwise a pool is created per
// options.threads when that resolves to more than one thread.
Result<CvbResult> RunCvb(const Table& table, const CvbOptions& options,
                         ThreadPool* pool = nullptr);

}  // namespace equihist

#endif  // EQUIHIST_CORE_CVB_H_
