// THM13: empirical companion to Theorems 1 and 3 — range-query estimation
// error under (a) the perfect histogram, (b) a sample-built histogram with
// bounded max error, and (c) adversarial histograms that look good on the
// average/variance metrics but hide one bad bucket. For each, the observed
// worst-case absolute error over a large range workload is compared with
// the theorems' bounds/floors.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace equihist;

namespace {

struct Row {
  const char* name;
  double f_avg, f_var, f_max;
  double mean_abs, max_abs;
  double bound;  // theorem bound/floor on worst-case abs error
  const char* bound_kind;
};

void PrintRows(const std::vector<Row>& rows, std::uint64_t n, std::uint64_t k) {
  std::printf("%-24s %7s %7s %7s | %10s %10s | %12s %s\n", "histogram",
              "f_avg", "f_var", "f_max", "mean |err|", "max |err|",
              "theory", "kind");
  for (const Row& row : rows) {
    std::printf("%-24s %7.3f %7.3f %7.3f | %10.1f %10.1f | %12.1f %s\n",
                row.name, row.f_avg, row.f_var, row.f_max, row.mean_abs,
                row.max_abs, row.bound, row.bound_kind);
  }
  std::printf("(2n/k = %.1f)\n\n",
              2.0 * static_cast<double>(n) / static_cast<double>(k));
}

// Moves every even separator to its right neighbour: halves the buckets are
// emptied and their neighbours doubled. Delta_max ~ n/k, Delta_avg ~ n/k
// too here, but the shape shows how a locally bad histogram corrupts
// estimates while staying moderate on aggregate metrics.
Histogram CollapseOneSeparator(const Histogram& perfect) {
  std::vector<Value> separators = perfect.separators();
  const std::size_t mid = separators.size() / 2;
  separators[mid] = separators[mid + 1];
  return Histogram::Create(separators, perfect.counts(),
                           perfect.lower_fence(), perfect.upper_fence())
      .value();
}

}  // namespace

int main() {
  const bench::Scale scale = bench::GetScale();
  bench::PrintBanner("THM13", "Theorems 1 & 3: range-query estimation error",
                     scale);

  const std::uint64_t n = scale.default_n / 2;
  const std::uint64_t k = scale.k / 2;
  // Duplicate-free data isolates the theorems' setting (Sections 2-3).
  auto freq = MakeAllDistinct(n);
  const ValueSet data = ValueSet::FromFrequencies(*freq);

  const auto perfect = BuildPerfectHistogram(data, k);
  const double f_target = 0.1;
  const auto r = DeviationSampleSize(n, k, f_target, 0.01);
  Rng rng(7);
  std::vector<Value> sample =
      SampleRowsWithReplacement(data.sorted_values(), *r, rng);
  std::sort(sample.begin(), sample.end());
  const auto sampled = BuildHistogramFromSample(sample, k, n);
  const Histogram adversarial = CollapseOneSeparator(*perfect);

  RangeWorkloadGenerator gen(&data, 13);
  std::vector<RangeQuery> queries = gen.UniformRanges(2000);
  const auto narrow = gen.FixedSelectivityRanges(2000, 2 * n / k);
  queries.insert(queries.end(), narrow->begin(), narrow->end());
  std::printf("workload: %zu uniform + fixed-selectivity range queries over "
              "all-distinct data (n=%s, k=%llu)\n\n",
              queries.size(), FormatWithThousands(n).c_str(),
              static_cast<unsigned long long>(k));

  std::vector<Row> rows;
  auto add = [&](const char* name, const Histogram& h, double bound,
                 const char* kind) {
    const auto errors = ComputeHistogramErrors(h, data);
    const auto report =
        EvaluateRangeWorkload(EquiHeightModel(h), queries, data);
    rows.push_back(Row{name, errors->f_avg, errors->f_var, errors->f_max,
                       report->mean_absolute_error,
                       report->max_absolute_error, bound, kind});
  };
  add("perfect", *perfect, PerfectHistogramAbsoluteErrorBound(n, k),
      "upper bound (Thm 1.1 tight)");
  {
    const auto errors = ComputeHistogramErrors(*sampled, data);
    add("sampled (target f=0.1)", *sampled,
        MaxErrorHistogramAbsoluteErrorBound(n, k, errors->f_max),
        "upper bound (Thm 3)");
  }
  {
    const auto errors = ComputeHistogramErrors(adversarial, data);
    add("adversarial collapsed", adversarial,
        AvgErrorHistogramAbsoluteErrorFloor(n, k, errors->f_avg),
        "worst-case floor (Thm 1.2)");
  }
  PrintRows(rows, n, k);

  std::printf("expected shape: observed max |err| <= its Theorem 1.1/3 upper "
              "bound for the perfect\nand sampled histograms; the "
              "adversarial histogram's max |err| blows past 2n/k even\n"
              "though its f_avg is small — the paper's argument for the max "
              "error metric.\n");
  return 0;
}
