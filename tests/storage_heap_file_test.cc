#include "storage/heap_file.h"

#include <limits>

#include <gtest/gtest.h>

#include "storage/page.h"

namespace equihist {
namespace {

TEST(PageConfigTest, TuplesPerPage) {
  EXPECT_EQ((PageConfig{8192, 64}).TuplesPerPage(), 128u);
  EXPECT_EQ((PageConfig{8192, 16}).TuplesPerPage(), 512u);
  EXPECT_EQ((PageConfig{8192, 128}).TuplesPerPage(), 64u);
  EXPECT_EQ((PageConfig{8192, 100}).TuplesPerPage(), 81u);  // floor division
  EXPECT_EQ((PageConfig{8192, 0}).TuplesPerPage(), 0u);
}

TEST(PageConfigTest, Validation) {
  EXPECT_TRUE(ValidatePageConfig({8192, 64}).ok());
  EXPECT_FALSE(ValidatePageConfig({0, 64}).ok());
  EXPECT_FALSE(ValidatePageConfig({8192, 0}).ok());
  EXPECT_FALSE(ValidatePageConfig({64, 8192}).ok());
  EXPECT_TRUE(ValidatePageConfig({64, 64}).ok());  // one tuple per page
}

TEST(PageTest, AppendUntilFull) {
  Page page(3);
  EXPECT_TRUE(page.empty());
  EXPECT_TRUE(page.Append(1));
  EXPECT_TRUE(page.Append(2));
  EXPECT_TRUE(page.Append(3));
  EXPECT_TRUE(page.full());
  EXPECT_FALSE(page.Append(4));
  EXPECT_EQ(page.size(), 3u);
  EXPECT_EQ(page.at(0), 1);
  EXPECT_EQ(page.at(2), 3);
}

// Every mutation widens the key bounds, so they hold every value.
TEST(PageTest, AppendAndCorruptValueKeepTheKeyBounds) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  Page page(4);
  EXPECT_GT(page.min_key(), page.max_key());  // empty
  page.Append(5);
  EXPECT_EQ(page.min_key(), 5);
  EXPECT_EQ(page.max_key(), 5);
  page.Append(-3);
  page.Append(9);
  EXPECT_EQ(page.min_key(), -3);
  EXPECT_EQ(page.max_key(), 9);
  page.CorruptValue(0, 5 ^ kMax);  // 5 becomes INT64_MAX
  EXPECT_EQ(page.at(0), kMax);
  EXPECT_EQ(page.max_key(), kMax);
  page.CorruptValue(1, -3 ^ kMin);  // -3 becomes INT64_MIN
  EXPECT_EQ(page.min_key(), kMin);
  for (const Value v : page.values()) {
    EXPECT_LE(page.min_key(), v);
    EXPECT_GE(page.max_key(), v);
  }
}

TEST(HeapFileTest, PacksTuplesDensely) {
  HeapFile file(PageConfig{64, 8});  // 8 tuples per page
  for (int i = 0; i < 20; ++i) file.Append(i);
  EXPECT_EQ(file.tuple_count(), 20u);
  EXPECT_EQ(file.page_count(), 3u);  // 8 + 8 + 4
  EXPECT_EQ(file.page(0).size(), 8u);
  EXPECT_EQ(file.page(1).size(), 8u);
  EXPECT_EQ(file.page(2).size(), 4u);
}

TEST(HeapFileTest, PreservesAppendOrder) {
  HeapFile file(PageConfig{32, 8});  // 4 per page
  file.AppendAll({10, 20, 30, 40, 50});
  EXPECT_EQ(file.page(0).at(0), 10);
  EXPECT_EQ(file.page(0).at(3), 40);
  EXPECT_EQ(file.page(1).at(0), 50);
}

TEST(HeapFileTest, ReadPageChargesIo) {
  HeapFile file(PageConfig{32, 8});
  file.AppendAll({1, 2, 3, 4, 5, 6});
  IoStats stats;
  auto page = file.ReadPage(0, &stats);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(stats.pages_read, 1u);
  EXPECT_EQ(stats.tuples_read, 4u);
  page = file.ReadPage(1, &stats);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(stats.pages_read, 2u);
  EXPECT_EQ(stats.tuples_read, 6u);
}

TEST(HeapFileTest, ReadPageNullStatsIsAllowed) {
  HeapFile file(PageConfig{32, 8});
  file.Append(7);
  EXPECT_TRUE(file.ReadPage(0, nullptr).ok());
}

TEST(HeapFileTest, ReadPageOutOfRangeIsNotFound) {
  HeapFile file(PageConfig{32, 8});
  file.Append(7);
  IoStats stats;
  const auto result = file.ReadPage(5, &stats);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.pages_read, 0u);  // failed reads are not charged
}

TEST(IoStatsTest, AccumulateAndReset) {
  IoStats a{2, 10};
  IoStats b{3, 7};
  a += b;
  EXPECT_EQ(a.pages_read, 5u);
  EXPECT_EQ(a.tuples_read, 17u);
  a.Reset();
  EXPECT_EQ(a.pages_read, 0u);
  EXPECT_EQ(a.tuples_read, 0u);
}

}  // namespace
}  // namespace equihist
