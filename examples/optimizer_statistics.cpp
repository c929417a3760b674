// optimizer_statistics: the full database-side statistics lifecycle —
// auto-create per-column statistics by sampling, persist them within the
// one-page budget (as SQL Server does), answer optimizer questions (range,
// equality, duplicate elimination), and auto-refresh after DML.
//
//   $ ./optimizer_statistics [n]

#include <cstdio>
#include <cstdlib>

#include "equihist/equihist.h"

namespace {

using namespace equihist;

Result<Table> MakeOrdersTable(std::uint64_t n, std::uint64_t seed) {
  // "orders.customer_id": Zipf-skewed — a few big customers.
  EQUIHIST_ASSIGN_OR_RETURN(
      const FrequencyVector freq,
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.4, .seed = seed}));
  return Table::Create(freq, PageConfig{8192, 64},
                       {.kind = LayoutKind::kRandom, .seed = seed});
}

Result<Table> MakeCustomersTable(std::uint64_t n, std::uint64_t seed) {
  // "customers.customer_id": nearly unique key with a few duplicates.
  EQUIHIST_ASSIGN_OR_RETURN(const FrequencyVector freq,
                            MakeUniformDup(n, n / 2));
  return Table::Create(freq, PageConfig{8192, 64},
                       {.kind = LayoutKind::kRandom, .seed = seed});
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000000;

  auto orders = MakeOrdersTable(n, 11);
  auto customers = MakeCustomersTable(n / 10, 13);
  if (!orders.ok() || !customers.ok()) {
    std::fprintf(stderr, "table construction failed\n");
    return 1;
  }
  std::printf("orders: %s rows, customers: %s rows\n\n",
              FormatWithThousands(orders->tuple_count()).c_str(),
              FormatWithThousands(customers->tuple_count()).c_str());

  // 1. Auto-create statistics by sampling.
  StatisticsManager manager({.buckets = 200, .f = 0.1});
  const auto orders_stats =
      manager.GetOrBuildShared("orders.customer_id", *orders);
  const auto customers_stats =
      manager.GetOrBuildShared("customers.customer_id", *customers);
  if (!orders_stats.ok() || !customers_stats.ok()) {
    std::fprintf(stderr, "statistics build failed\n");
    return 1;
  }
  std::printf("auto-created statistics (by sampling):\n  %s\n  %s\n",
              (*orders_stats)->ToString().c_str(),
              (*customers_stats)->ToString().c_str());
  std::printf("  total build I/O: %s pages (vs %s pages for full scans)\n\n",
              FormatWithThousands(manager.total_build_cost().pages_read).c_str(),
              FormatWithThousands(orders->page_count() +
                                  customers->page_count())
                  .c_str());

  // 2. Persist within the one-page budget.
  std::vector<std::uint8_t> page;
  SerializeColumnStatistics(**orders_stats, &page);
  std::printf("persistence: orders statistics serialize to %s bytes "
              "(one 8KB page: %s)\n",
              FormatWithThousands(page.size()).c_str(),
              page.size() <= 8192 ? "fits" : "DOES NOT FIT");
  const auto restored = DeserializeColumnStatistics(page);
  std::printf("  round-trip: %s\n\n",
              restored.ok() ? "ok" : restored.status().ToString().c_str());

  // 3. Answer optimizer questions.
  const ColumnStatistics& o = **orders_stats;
  const Value median = o.histogram().separators()[o.histogram().separators().size() / 2];
  std::printf("optimizer estimates on orders.customer_id:\n");
  std::printf("  range (0, %lld]         ~ %s rows\n",
              static_cast<long long>(median),
              FormatCount(o.EstimateRangeCount({0, median})).c_str());
  if (!o.heavy_hitters.empty()) {
    const auto& top = o.heavy_hitters.front();
    std::printf("  equality = %lld (hot)   ~ %s rows (pinned heavy hitter)\n",
                static_cast<long long>(top.value),
                FormatCount(static_cast<double>(top.count)).c_str());
  }
  std::printf("  equality = %lld (cold)  ~ %.1f rows (density fallback)\n",
              static_cast<long long>(o.histogram().upper_fence()),
              o.EstimateEqualityCount(o.histogram().upper_fence()));
  std::printf("  DISTINCT reduction      ~ %.2f%% of rows survive\n\n",
              100.0 * o.EstimateDistinctFraction());

  // 4. DML happens; statistics go stale and auto-refresh.
  manager.RecordModifications("orders.customer_id",
                              orders->tuple_count() / 3);
  std::printf("after modifying 33%% of orders: stale=%s\n",
              manager.IsStale("orders.customer_id") ? "yes" : "no");
  const auto fresh = manager.EnsureFresh("orders.customer_id", *orders);
  if (fresh.ok()) {
    std::printf("auto-refresh rebuilt statistics (%llu builds total): %s\n",
                static_cast<unsigned long long>(manager.rebuild_count()),
                (*fresh)->ToString().c_str());
  }
  return 0;
}
