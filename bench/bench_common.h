#ifndef EQUIHIST_BENCH_BENCH_COMMON_H_
#define EQUIHIST_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the experiment harnesses that regenerate the
// paper's tables and figures. Each bench binary prints the same rows or
// series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Scale: the paper ran with N = 5..20 million rows and k = 600 buckets on
// SQL Server. By default the harnesses run a reduced "fast" scale so the
// whole suite finishes in minutes on one core; set EQUIHIST_FULL_SCALE=1
// to run at the paper's numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "equihist/equihist.h"

namespace equihist::bench {

struct Scale {
  bool full = false;
  // Smoke mode (--smoke flag or EQUIHIST_SMOKE=1): tiny n, fixed seeds —
  // finishes in seconds, exercises every code path. CI runs the harnesses
  // this way so a bench that rots fails the build, not the next
  // experiment run.
  bool smoke = false;
  // The paper's default table size (most figures): 10M rows full, 1M fast.
  std::uint64_t default_n = 1000000;
  // Histogram buckets: 600 full (one SQL Server page of integer steps),
  // 100 fast.
  std::uint64_t k = 100;
  // Figure 3/4 N sweep: {5,10,15,20}M full, {0.5,1,1.5,2}M fast.
  std::vector<std::uint64_t> n_sweep;
  // Zipf domain size used when generating a column of n tuples.
  std::uint64_t DomainFor(std::uint64_t n) const { return n / 100; }
};

// Resolves the run scale: EQUIHIST_FULL_SCALE=1 selects the paper's sizes,
// a --smoke argument or EQUIHIST_SMOKE=1 selects the tiny CI scale (smoke
// wins when both are set). Pass main's argc/argv to honour the flag;
// GetScale() alone still reads the environment.
Scale GetScale(int argc = 0, char** argv = nullptr);

// The host's core count for bench JSON. Normalizes the "not computable"
// zero from std::thread::hardware_concurrency() to 1, and prints a loud
// one-time warning on single-core hosts, where parallel speedups and QPS
// scaling sections measure scheduling overhead rather than parallelism.
unsigned HostConcurrency();

// The JSON `host` object every bench report carries:
// {"hardware_concurrency", "compiler", "build_type"}.
std::string HostJson();

// Writes a bench's JSON artifact to `path`. Enforces the reporting
// contract every throughput bench must honour: the JSON records the
// host's hardware_concurrency (the perf-regression CI job and
// EXPERIMENTS.md key off it) — a bench that omits it aborts here rather
// than publishing an uninterpretable baseline.
void WriteBenchJson(const std::string& path, const std::string& json);

// Prints the standard experiment banner (experiment id, paper figure,
// scale note).
void PrintBanner(const std::string& experiment_id, const std::string& title,
                 const Scale& scale);

// Builds a Zipf(Z) column of n tuples and the matching paged table.
struct Dataset {
  FrequencyVector frequencies;
  ValueSet truth;
  Table table;
};
Dataset MakeZipfDataset(std::uint64_t n, double skew, LayoutKind layout,
                        std::uint32_t record_size_bytes = 64,
                        std::uint64_t seed = 42,
                        double clustered_fraction = 0.2);

// Builds the paper's Unif/Dup dataset: `distinct` values each occurring
// n / distinct times.
Dataset MakeUnifDupDataset(std::uint64_t n, std::uint64_t distinct,
                           LayoutKind layout,
                           std::uint32_t record_size_bytes = 64,
                           std::uint64_t seed = 42);

// Measures the histogram error obtained from sampling `blocks` random
// pages of `dataset.table` (without replacement), averaged over `trials`
// seeds. Error is the fractional max error of the histogram against the
// population (FractionalErrorVsPopulation) — the paper's Section 5
// duplicate-aware generalization of the max error metric, the same family
// its prototype computed for cross-validation.
double MeasuredErrorAtBlocks(const Dataset& dataset, std::uint64_t blocks,
                             std::uint64_t k, int trials, std::uint64_t seed0);

// Finds the smallest number of sampled blocks whose measured error drops
// below `target_error`, by doubling then bisecting. Returns the block
// count (capped at the table's page count).
std::uint64_t BlocksForTargetError(const Dataset& dataset, double target_error,
                                   std::uint64_t k, int trials,
                                   std::uint64_t seed0);

}  // namespace equihist::bench

#endif  // EQUIHIST_BENCH_BENCH_COMMON_H_
