#include "query/index.h"

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "data/value_set.h"
#include "storage/fault_injection.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{512, 64};  // 8 tuples per page

struct Fixture {
  Fixture()
      : freq(MakeZipf({.n = 5000, .domain_size = 500, .skew = 1.0, .seed = 3})
                 .value()),
        truth(ValueSet::FromFrequencies(freq)),
        table(Table::Create(freq, kPage, {.kind = LayoutKind::kRandom,
                                          .seed = 3})
                  .value()),
        index(OrderedIndex::Build(table, nullptr, 64).value()) {}

  FrequencyVector freq;
  ValueSet truth;
  Table table;
  OrderedIndex index;
};

TEST(OrderedIndexTest, BuildIndexesEveryTuple) {
  Fixture fx;
  EXPECT_EQ(fx.index.entry_count(), fx.table.tuple_count());
  EXPECT_EQ(fx.index.leaf_count(), (5000 + 63) / 64);
}

TEST(OrderedIndexTest, BuildChargesOneScan) {
  const auto freq = MakeAllDistinct(100);
  Table table = Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom})
                    .value();
  IoStats stats;
  const auto index = OrderedIndex::Build(table, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(stats.pages_read, table.page_count());
}

TEST(OrderedIndexTest, RangeCountMatchesGroundTruth) {
  Fixture fx;
  for (const RangeQuery& q :
       {RangeQuery{0, 100}, RangeQuery{50, 51}, RangeQuery{-5, 10000},
        RangeQuery{499, 500}, RangeQuery{200, 200}}) {
    EXPECT_EQ(fx.index.RangeCount(q, nullptr),
              fx.truth.CountInRange(q.lo, q.hi))
        << q.lo << " " << q.hi;
  }
}

TEST(OrderedIndexTest, RangeScanMatchesCountAndChargesPages) {
  Fixture fx;
  const RangeQuery q{100, 200};
  IoStats stats;
  const Result<std::uint64_t> scanned =
      fx.index.RangeScanChecked(fx.table, q, &stats);
  ASSERT_TRUE(scanned.ok());
  const std::uint64_t rows = *scanned;
  EXPECT_EQ(rows, fx.truth.CountInRange(q.lo, q.hi));
  EXPECT_EQ(stats.tuples_read, rows);
  // Pages touched: at most one table page per match plus the leaves, and
  // at least ceil(rows / tuples_per_page).
  EXPECT_GE(stats.pages_read, rows / 8);
  EXPECT_LE(stats.pages_read, rows + fx.index.leaf_count());
}

TEST(OrderedIndexTest, EmptyRangeTouchesNothing) {
  Fixture fx;
  IoStats stats;
  const Result<std::uint64_t> rows =
      fx.index.RangeScanChecked(fx.table, {10000, 20000}, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 0u);
  EXPECT_EQ(stats.pages_read, 0u);
  EXPECT_EQ(stats.tuples_read, 0u);
}

TEST(OrderedIndexTest, NarrowRangeIsFarCheaperThanScan) {
  Fixture fx;
  IoStats index_io;
  ASSERT_TRUE(fx.index.RangeScanChecked(fx.table, {100, 102}, &index_io).ok());
  EXPECT_LT(index_io.pages_read, fx.table.page_count() / 4);
}

// Regression: Build and the range scan used to check ReadPage results only
// with assert(), so on faulty storage a release build dereferenced an
// empty Result. Both now retry transient faults and propagate permanent
// ones.

TEST(OrderedIndexFaultTest, BuildPropagatesLostPage) {
  const auto freq = MakeAllDistinct(100);
  Table table = Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom})
                    .value();
  FaultSpec spec;
  spec.lost_pages = {3};
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  const auto index = OrderedIndex::Build(table);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kDataLoss);
}

TEST(OrderedIndexFaultTest, BuildRetriesTransientFaultsAndCharges) {
  const auto freq = MakeAllDistinct(100);
  Table table = Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom})
                    .value();
  FaultSpec spec;
  spec.transient_pages = {2};
  spec.transient_failures_per_page = 2;  // heals within the default 3 tries
  FaultInjector injector(spec);
  table.set_fault_injector(&injector);
  IoStats stats;
  const auto index = OrderedIndex::Build(table, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->entry_count(), table.tuple_count());
  EXPECT_EQ(stats.transient_retries, 2u);
}

TEST(OrderedIndexFaultTest, RangeScanCheckedPropagatesLostPage) {
  Fixture fx;
  FaultSpec spec;
  spec.lost_pages = {0};
  FaultInjector injector(spec);
  fx.table.set_fault_injector(&injector);
  IoStats stats;
  // The full-domain scan must fetch every page, page 0 included.
  const Result<std::uint64_t> rows =
      fx.index.RangeScanChecked(fx.table, {-5, 10000}, &stats);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDataLoss);
}

TEST(OrderedIndexFaultTest, RangeScanCheckedMatchesRangeScanWhenFaultFree) {
  // On fault-free storage the scan returns the plain count over the
  // table's values and bills the leaves its entries span plus each table
  // page holding a match, once, and one tuple per match.
  Fixture fx;
  const RangeQuery q{100, 200};
  std::uint64_t rows = 0;
  std::uint64_t pages_with_match = 0;
  for (std::uint64_t page_id = 0; page_id < fx.table.page_count();
       ++page_id) {
    const Page* page = fx.table.file().ReadPage(page_id, nullptr).value();
    std::uint64_t page_rows = 0;
    for (std::uint32_t slot = 0; slot < page->size(); ++slot) {
      if (q.lo < page->at(slot) && page->at(slot) <= q.hi) ++page_rows;
    }
    rows += page_rows;
    pages_with_match += page_rows > 0 ? 1 : 0;
  }
  const std::uint64_t first = fx.truth.CountLessEqual(q.lo);
  const std::uint64_t last = fx.truth.CountLessEqual(q.hi);
  ASSERT_GT(last, first);
  const std::uint64_t leaves = (last - 1) / 64 - first / 64 + 1;
  IoStats io;
  const Result<std::uint64_t> checked =
      fx.index.RangeScanChecked(fx.table, q, &io);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(*checked, rows);
  EXPECT_EQ(io.pages_read, leaves + pages_with_match);
  EXPECT_EQ(io.tuples_read, rows);
}

TEST(OrderedIndexTest, Validation) {
  EXPECT_FALSE(OrderedIndex::Build(
                   Table::CreateFromValues({1}, kPage).value(), nullptr, 0)
                   .ok());
}

}  // namespace
}  // namespace equihist
