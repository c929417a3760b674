// PLAN: the paper's motivating application, end to end — "the ability of
// an optimizer to make a good decision is critically influenced by the
// availability of statistical information" (Section 1). The same range
// workload is planned with statistics of varying quality, every chosen
// plan is executed, and the measured I/O is compared against the oracle
// (always-cheapest) plan.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "bench_common.h"

using namespace equihist;

namespace {

struct Verdict {
  int wrong_plans = 0;
  double total_cost = 0.0;   // weighted page cost actually paid
  double oracle_cost = 0.0;  // weighted cost of the cheapest plan
};

// Pages read by running `q` alone on `path` (the table is fault-free).
double PagesRead(const Table& table, const OrderedIndex& index,
                 const RangeQuery& q, AccessPath path) {
  const auto result = ExecutePlansChecked(
      table, index, std::span<const RangeQuery>(&q, 1), path);
  if (!result.ok()) {
    std::fprintf(stderr, "plan execution failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return static_cast<double>(result->io.pages_read);
}

Verdict RunWorkload(const ColumnStatistics& stats, const Table& table,
                    const OrderedIndex& index,
                    const std::vector<RangeQuery>& queries) {
  const CostModel cost_model;
  Verdict verdict;
  for (const RangeQuery& q : queries) {
    const auto choice = ChooseAccessPath(*stats.model, q, table.page_count(),
                                         table.tuples_per_page());
    const double index_cost =
        PagesRead(table, index, q, AccessPath::kIndexRangeScan) *
        cost_model.random_page_cost;
    const double scan_cost = PagesRead(table, index, q, AccessPath::kFullScan) *
                             cost_model.sequential_page_cost;
    const double chosen_cost =
        choice.path == AccessPath::kIndexRangeScan ? index_cost : scan_cost;
    const double best_cost = std::min(index_cost, scan_cost);
    verdict.total_cost += chosen_cost;
    verdict.oracle_cost += best_cost;
    if (chosen_cost > best_cost * 1.01) ++verdict.wrong_plans;
  }
  return verdict;
}

void Row(const char* name, const Verdict& v, std::size_t queries) {
  std::printf("%-30s %10d/%zu %16.0f %14.1f%%\n", name, v.wrong_plans,
              queries, v.total_cost,
              100.0 * (v.total_cost / v.oracle_cost - 1.0));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::GetScale(argc, argv);
  bench::PrintBanner("PLAN",
                     "plan quality vs statistics quality (access-path "
                     "selection)",
                     scale);

  const std::uint64_t n = scale.default_n / 2;
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 25, .skew = 1.5, .seed = 21});
  const ValueSet truth = ValueSet::FromFrequencies(*freq);
  Table table = Table::Create(*freq, PageConfig{8192, 64},
                              {.kind = LayoutKind::kRandom, .seed = 21})
                    .value();
  const auto index = OrderedIndex::Build(table);

  // Mixed-width workload over the value domain (domain-based, so windows
  // that land on a heavy value have output sizes far from their width —
  // exactly where statistics matter).
  Rng qrng(33);
  std::vector<RangeQuery> queries;
  const Value domain_lo = truth.min() - 1;
  const Value domain_hi = truth.max();
  for (double width_fraction :
       {0.0005, 0.002, 0.01, 0.05, 0.1, 0.25, 0.5}) {
    const auto width = std::max<Value>(
        1, static_cast<Value>(width_fraction *
                              static_cast<double>(domain_hi - domain_lo)));
    for (int i = 0; i < 30; ++i) {
      const Value lo =
          domain_lo + static_cast<Value>(qrng.NextBounded(
                          static_cast<std::uint64_t>(domain_hi - domain_lo)));
      queries.push_back(RangeQuery{lo, std::min<Value>(lo + width, domain_hi)});
    }
  }
  // Plus hot-value probes: narrow windows around the most frequent values
  // (real workloads correlate with hot data). These are the traps where a
  // width-based guess picks the index and then fetches half the table.
  {
    std::vector<FrequencyEntry> by_count = freq->entries();
    std::sort(by_count.begin(), by_count.end(),
              [](const FrequencyEntry& a, const FrequencyEntry& b) {
                return a.count > b.count;
              });
    const Value narrow = std::max<Value>(
        1, (domain_hi - domain_lo) / 1000);
    for (std::size_t i = 0; i < 20 && i < by_count.size(); ++i) {
      const Value v = by_count[i].value;
      queries.push_back(RangeQuery{v - 1, v});           // exactly the value
      queries.push_back(RangeQuery{v - narrow, v});      // small window to it
      queries.push_back(RangeQuery{v - 1, v + narrow});  // window past it
    }
  }
  std::printf("N=%s, Zipf Z=1.5, %zu queries: widths 0.05%%..50%% of the "
              "domain plus hot-value probes,\nrandom_page_cost=4\n\n",
              FormatWithThousands(n).c_str(), queries.size());

  // Statistics variants, best to worst.
  const auto exact = BuildStatisticsFullScan(table, scale.k);
  CvbOptions cvb;
  cvb.k = scale.k;
  cvb.f = 0.1;
  const auto sampled = BuildStatisticsSampled(table, cvb);
  CvbOptions tiny;
  tiny.k = scale.k;
  tiny.f = 0.1;
  tiny.initial_blocks_override = 2;  // ~256 tuples total
  tiny.schedule.kind = ScheduleKind::kLinear;
  tiny.max_iterations = 1;
  const auto undersampled = BuildStatisticsSampled(table, tiny);

  // "Stale": statistics built for a column whose hot values moved — the
  // same marginal distribution with a different value placement.
  const auto stale_freq =
      MakeZipf({.n = n, .domain_size = n / 25, .skew = 1.5, .seed = 99});
  Table stale_table = Table::Create(*stale_freq, PageConfig{8192, 64},
                                    {.kind = LayoutKind::kRandom, .seed = 99})
                          .value();
  const auto stale = BuildStatisticsFullScan(stale_table, scale.k);

  // "None": a single-bucket histogram — the optimizer's blind guess.
  ColumnStatistics blind;
  blind.SetEquiHeight(
      Histogram::Create({}, {n}, truth.min() - 1, truth.max()).value());
  blind.row_count = n;
  blind.density = 0.0;
  blind.distinct_estimate = static_cast<double>(n);

  std::printf("%-30s %12s %16s %15s\n", "statistics", "wrong plans",
              "total cost", "vs oracle");
  Row("exact (full scan + sort)", RunWorkload(*exact, table, *index, queries),
      queries.size());
  Row("sampled (CVB, f=0.1)", RunWorkload(*sampled, table, *index, queries),
      queries.size());
  Row("undersampled (1 batch)",
      RunWorkload(*undersampled, table, *index, queries), queries.size());
  Row("stale (hot values moved)", RunWorkload(*stale, table, *index, queries),
      queries.size());
  Row("none (single bucket)", RunWorkload(blind, table, *index, queries),
      queries.size());

  std::printf(
      "\nexpected shape: statistics that reflect the data (exact, "
      "CVB-sampled, even a coarse\nsample) keep the I/O overhead versus the "
      "oracle to the unavoidable near-crossover\nband, where both plans "
      "cost about the same; statistics that do NOT reflect the data\n"
      "(stale hot values, no histogram) roughly double the overhead by "
      "sending hot-value\nqueries down the index — the paper's opening "
      "argument, measured. That a small\nsample already plans as well as a "
      "full scan is exactly the economics the paper's\nbounds promise.\n");
  return 0;
}
