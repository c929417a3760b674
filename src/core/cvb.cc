#include "core/cvb.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/bounds.h"
#include "core/density.h"
#include "core/error_metrics.h"
#include "core/histogram_builder.h"
#include "sampling/block_sampler.h"
#include "sampling/sample.h"

namespace equihist {
namespace {

Status ValidateOptions(const Table& table, const CvbOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (!(options.f > 0.0 && options.f <= 1.0)) {
    return Status::InvalidArgument("f must be in (0, 1]");
  }
  if (!(options.gamma > 0.0 && options.gamma < 1.0)) {
    return Status::InvalidArgument("gamma must be in (0, 1)");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (table.tuple_count() == 0) {
    return Status::FailedPrecondition("cannot run CVB over an empty table");
  }
  return Status::OK();
}

// One uniformly chosen tuple per sampled block, sorted. The picks take the
// pages in the order they were sampled, one rng draw per page.
std::vector<Value> OneTuplePerBlock(std::span<const Page* const> pages,
                                    Rng& rng) {
  std::vector<Value> subset;
  subset.reserve(pages.size());
  for (const Page* page : pages) {
    if (page->empty()) continue;
    subset.push_back(
        page->at(static_cast<std::uint32_t>(rng.NextBounded(page->size()))));
  }
  std::sort(subset.begin(), subset.end());
  return subset;
}

}  // namespace

Result<CvbResult> RunCvb(const Table& table, const CvbOptions& options,
                         ThreadPool* pool) {
  EQUIHIST_RETURN_IF_ERROR(ValidateOptions(table, options));

  // Use the caller's pool when given; otherwise spin one up per
  // options.threads, clamped to the core count — the build stages are
  // CPU-bound and over-subscription strictly regresses. threads == 1
  // keeps everything on this thread.
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr) {
    const std::size_t threads = ResolveBuildThreadCount(options.threads);
    if (threads > 1) {
      owned_pool = std::make_unique<ThreadPool>(threads);
      pool = owned_pool.get();
    }
  }

  const std::uint64_t n = table.tuple_count();
  const std::uint64_t b = table.tuples_per_page();

  // Step 1: initial block budget — the paper's experimental 5*sqrt(n)
  // tuples, or the conservative Theorem 4 record-level budget in blocks.
  std::uint64_t g0 = options.initial_blocks_override;
  if (g0 == 0) {
    if (options.initial_budget == CvbInitialBudget::kTheorem4) {
      EQUIHIST_ASSIGN_OR_RETURN(
          const std::uint64_t r,
          DeviationSampleSize(n, options.k, options.f, options.gamma));
      g0 = (r + b - 1) / b;
    } else {
      g0 = PaperSqrtNInitialBatchBlocks(n, b);
    }
  }
  g0 = std::clamp<std::uint64_t>(g0, 1, table.page_count());
  EQUIHIST_ASSIGN_OR_RETURN(const StepSchedule schedule,
                            StepSchedule::Create(options.schedule, g0));

  Rng rng(options.seed);
  IncrementalBlockSampler sampler(&table, rng.Next());
  sampler.set_retry_policy(options.retry);

  CvbResult result{
      .histogram = Histogram::Create({}, {1}, 0, 1).value()  // placeholder
  };

  // Per-build fault budget: every block the sampler gives up on (after
  // retry) was replaced by a fresh uniform draw, but past the budget the
  // sample is suspect and the build fails loudly instead.
  auto check_fault_budget = [&]() -> Status {
    if (sampler.pages_skipped() > options.max_skipped_blocks) {
      return Status::DataLoss(
          "CVB fault budget exhausted: " +
          std::to_string(sampler.pages_skipped()) +
          " blocks permanently unreadable (budget " +
          std::to_string(options.max_skipped_blocks) + ") after reading " +
          std::to_string(result.io.pages_read) + " blocks");
    }
    return Status::OK();
  };
  auto exhausted_error = [&]() -> Status {
    return Status::ResourceExhausted(
        "table exhausted before CVB validation passed: read " +
        std::to_string(result.io.pages_read) + " blocks, skipped " +
        std::to_string(sampler.pages_skipped()) + " unreadable blocks");
  };

  // Step 2/3: initial sample and histogram H0.
  std::vector<const Page*> pages = sampler.NextPages(g0, &result.io);
  EQUIHIST_RETURN_IF_ERROR(check_fault_budget());
  if (pages.empty()) {
    // g0 >= 1, so an empty initial batch means every page the sampler
    // touched was permanently unreadable — nothing to build from.
    return exhausted_error();
  }
  // Every histogram is built from the separators Sample::Add reads while
  // it adds a batch: R's quantiles once the batch is in.
  Sample accumulated;
  Sample::BatchRanks ranks;
  auto add = [&](std::span<const Value> separators) {
    std::uint64_t tuples = 0;
    for (const Page* page : pages) tuples += page->size();
    ranks.quantile_ranks =
        QuantileRanks(accumulated.size() + tuples, options.k);
    accumulated.Add(pages, separators, ranks, pool);
    return BuildHistogramFromSeparators(accumulated.view(),
                                        std::move(ranks.quantiles), n);
  };
  EQUIHIST_ASSIGN_OR_RETURN(Histogram current, add({}));

  // Step 4: iterate cross-validation rounds.
  std::uint64_t accumulated_blocks = result.io.pages_read;
  double last_error = -1.0;  // < 0 until the first validation ran
  for (std::uint64_t i = 1; i <= options.max_iterations; ++i) {
    std::uint64_t want_blocks = schedule.BatchSize(i);
    if (options.error_adaptive_stepping && last_error >= 0.0) {
      const double ratio = last_error / options.f;
      const double factor = std::clamp(ratio * ratio - 1.0, 0.25, 2.0);
      want_blocks = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::llround(static_cast<double>(accumulated_blocks) *
                              factor)));
    }
    IoStats batch_io;
    pages = sampler.NextPages(want_blocks, &batch_io);
    result.io += batch_io;
    EQUIHIST_RETURN_IF_ERROR(check_fault_budget());
    if (pages.empty()) {
      // Table exhausted before convergence: the accumulated sample is the
      // whole *readable* table — exact when nothing was skipped.
      result.exhausted_table = true;
      break;
    }

    CvbIterationLog entry;
    entry.iteration = i;
    entry.fresh_blocks = batch_io.pages_read;

    // The fresh batch is folded into R (Sample::Add), which records what
    // validation reads of R before the batch and of the batch: their ranks
    // at H_{i-1}'s separators. H_i comes from the same fold. One-tuple-
    // per-block validation ranks its picks, drawn before the fold.
    std::vector<Value> picks;
    if (options.style == CvbValidationStyle::kOneTuplePerBlock) {
      picks = OneTuplePerBlock(pages, rng);
    }
    Result<Histogram> next = add(current.separators());
    entry.fresh_tuples = ranks.batch_size;
    const SeparatorRanks reference(ranks.before, ranks.before_size);
    SeparatorRanks validation(ranks.batch, ranks.batch_size);
    std::vector<std::uint64_t> pick_ranks;
    if (options.style == CvbValidationStyle::kOneTuplePerBlock) {
      pick_ranks.resize(current.separators().size());
      SortedView(picks).PartitionRanks(current.separators(), pick_ranks);
      validation = SeparatorRanks(pick_ranks, picks.size());
    }

    // Stopping statistic, normalized so the pass threshold is f itself.
    switch (options.metric) {
      case CvbValidationMetric::kFractionalMaxError:
        entry.validation_error =
            FractionalMaxError(current, reference, validation);
        break;
      case CvbValidationMetric::kRelativeDeviation: {
        const double ideal = static_cast<double>(validation.size) /
                             static_cast<double>(options.k);
        const double deviation = RelativeDeviation(current, validation);
        entry.validation_error = (ideal > 0.0) ? deviation / ideal : 0.0;
        break;
      }
      case CvbValidationMetric::kClaimedDeviation:
        entry.validation_error = ClaimedDeviation(current, validation);
        break;
    }
    entry.threshold = options.f;
    entry.passed = entry.validation_error < options.f;

    // Step 4(c): H_i, from the merged sample, replaces H_{i-1} regardless
    // of the outcome — the fresh sample improves the histogram either
    // way, and the paper's output is H_i (post-merge).
    EQUIHIST_ASSIGN_OR_RETURN(current, std::move(next));

    entry.accumulated_tuples = accumulated.size();
    result.log.push_back(entry);
    result.iterations = i;
    accumulated_blocks += batch_io.pages_read;
    last_error = entry.validation_error;

    if (entry.passed) {
      result.converged = true;
      break;
    }
    if (sampler.pages_remaining() == 0) {
      result.exhausted_table = true;
      break;
    }
  }

  result.blocks_skipped = sampler.pages_skipped();
  if (result.exhausted_table && !result.converged) {
    if (result.blocks_skipped > 0 || !options.allow_exhaustive_fallback) {
      // With skips, the "whole table" sample is silently missing the
      // unreadable pages — not exact, so don't pretend it is. Without the
      // fallback, the caller demanded convergence-by-validation.
      return exhausted_error();
    }
    // Fold in whatever was read; with the whole file sampled the
    // accumulated sample equals the column and the histogram is perfect.
    EQUIHIST_ASSIGN_OR_RETURN(
        current, BuildHistogramFromSample(accumulated, options.k, n));
  }

  result.histogram = std::move(current);
  result.blocks_sampled = result.io.pages_read;
  result.tuples_sampled = result.io.tuples_read;
  result.sampling_fraction =
      static_cast<double>(result.tuples_sampled) / static_cast<double>(n);
  // Sample statistics come from the final sample (Section 7.1 notes 3-4),
  // heavy hitters with counts scaled to the table.
  const SortedView sample = accumulated.view();
  SampleStatistics summary = SummarizeSample(
      sample, options.k,
      static_cast<double>(n) / static_cast<double>(sample.size()));
  result.density_estimate = summary.density;
  result.sample_distinct = summary.distinct;
  result.sample_singletons = summary.singletons;
  result.heavy_hitters = std::move(summary.heavy_hitters);
  result.sample = std::move(accumulated);
  return result;
}

}  // namespace equihist
