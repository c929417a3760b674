#include "storage/table.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "data/generator.h"
#include "storage/scan.h"

namespace equihist {
namespace {

TEST(TableTest, CreateFromValuesPacksPages) {
  auto table = Table::CreateFromValues({1, 2, 3, 4, 5}, PageConfig{32, 16});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->tuple_count(), 5u);
  EXPECT_EQ(table->tuples_per_page(), 2u);
  EXPECT_EQ(table->page_count(), 3u);
}

TEST(TableTest, CreateValidatesInput) {
  EXPECT_FALSE(Table::CreateFromValues({}, PageConfig{32, 16}).ok());
  EXPECT_FALSE(Table::CreateFromValues({1}, PageConfig{0, 16}).ok());
  EXPECT_FALSE(Table::CreateFromValues({1}, PageConfig{16, 32}).ok());
}

TEST(TableTest, CreateFromFrequenciesAppliesLayout) {
  const auto freq = MakeUniformDup(100, 10);
  ASSERT_TRUE(freq.ok());
  auto table = Table::Create(*freq, PageConfig{80, 8},
                             {.kind = LayoutKind::kSorted});
  ASSERT_TRUE(table.ok());
  IoStats stats;
  const auto scanned = FullScanChecked(*table, &stats);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(std::is_sorted(scanned->begin(), scanned->end()));
  EXPECT_EQ(scanned->size(), 100u);
}

TEST(TableTest, FullScanReadsEveryPageOnce) {
  auto table = Table::CreateFromValues(ExpandSorted(*MakeAllDistinct(1000)),
                                       PageConfig{8192, 64});
  ASSERT_TRUE(table.ok());
  IoStats stats;
  const auto scanned = FullScanChecked(*table, &stats);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), 1000u);
  EXPECT_EQ(stats.pages_read, table->page_count());
  EXPECT_EQ(stats.tuples_read, 1000u);
}

TEST(TableTest, FullScanPreservesLayoutOrder) {
  const std::vector<Value> values = {9, 1, 8, 2, 7, 3};
  auto table = Table::CreateFromValues(values, PageConfig{32, 8});
  ASSERT_TRUE(table.ok());
  const auto scanned = FullScanChecked(*table, nullptr);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*scanned, values);
}

TEST(TableTest, MoveSemantics) {
  auto table = Table::CreateFromValues({1, 2, 3}, PageConfig{32, 8});
  ASSERT_TRUE(table.ok());
  Table moved = std::move(table).value();
  EXPECT_EQ(moved.tuple_count(), 3u);
}

}  // namespace
}  // namespace equihist
