#include "sampling/sample.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace equihist {
namespace {

TEST(SampleTest, ConstructionSorts) {
  Sample sample({5, 1, 3, 3, 2});
  EXPECT_EQ(sample.size(), 5u);
  EXPECT_EQ(sample.sorted_values(), (std::vector<Value>{1, 2, 3, 3, 5}));
}

TEST(SampleTest, DefaultIsEmpty) {
  Sample sample;
  EXPECT_TRUE(sample.empty());
  EXPECT_EQ(sample.size(), 0u);
}

TEST(SampleTest, MergeKeepsSortedMultiset) {
  Sample sample({4, 2, 9});
  sample.MergeSorted(std::vector<Value>{-5, 2, 3, 10});
  EXPECT_EQ(sample.sorted_values(),
            (std::vector<Value>{-5, 2, 2, 3, 4, 9, 10}));
}

TEST(SampleTest, MergeIntoEmpty) {
  Sample sample;
  sample.MergeSorted(std::vector<Value>{1, 7});
  EXPECT_EQ(sample.sorted_values(), (std::vector<Value>{1, 7}));
}

TEST(SampleTest, MergeEmptyBatchIsNoop) {
  Sample sample({1, 2});
  sample.MergeSorted({});
  EXPECT_EQ(sample.size(), 2u);
}

TEST(SampleTest, CountLessEqual) {
  Sample sample({1, 3, 3, 7});
  EXPECT_EQ(sample.CountLessEqual(0), 0u);
  EXPECT_EQ(sample.CountLessEqual(3), 3u);
  EXPECT_EQ(sample.CountLessEqual(7), 4u);
}

TEST(SampleTest, ValueAtRank) {
  Sample sample({9, 5, 5, 1});
  EXPECT_EQ(sample.ValueAtRank(0), 1);
  EXPECT_EQ(sample.ValueAtRank(1), 5);
  EXPECT_EQ(sample.ValueAtRank(3), 9);
}

TEST(SampleTest, ManyMergesStaySorted) {
  Sample sample;
  for (int i = 0; i < 20; ++i) {
    sample.MergeSorted(
        std::vector<Value>{static_cast<Value>(i), static_cast<Value>(100 - i)});
  }
  EXPECT_EQ(sample.size(), 40u);
  EXPECT_TRUE(std::is_sorted(sample.sorted_values().begin(),
                             sample.sorted_values().end()));
}

}  // namespace
}  // namespace equihist
