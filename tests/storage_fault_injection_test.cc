#include "storage/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "storage/heap_file.h"
#include "storage/page.h"

namespace equihist {
namespace {

HeapFile SmallFile(std::uint64_t tuples = 64) {
  HeapFile file(PageConfig{64, 8});  // 8 tuples per page
  for (std::uint64_t i = 0; i < tuples; ++i) {
    file.Append(static_cast<Value>(i));
  }
  return file;
}

TEST(FaultInjectorTest, LostTriggerPageAlwaysFails) {
  FaultSpec spec;
  spec.lost_pages = {2};
  FaultInjector injector(spec);
  EXPECT_EQ(injector.Decide(2), FaultKind::kLost);
  EXPECT_EQ(injector.Decide(2), FaultKind::kLost);  // lost stays lost
  EXPECT_EQ(injector.Decide(0), FaultKind::kNone);
  EXPECT_EQ(injector.lost_injected(), 2u);
}

TEST(FaultInjectorTest, TransientTriggerHealsAfterConfiguredFailures) {
  FaultSpec spec;
  spec.transient_pages = {1};
  spec.transient_failures_per_page = 3;
  FaultInjector injector(spec);
  EXPECT_EQ(injector.Decide(1), FaultKind::kTransient);
  EXPECT_EQ(injector.Decide(1), FaultKind::kTransient);
  EXPECT_EQ(injector.Decide(1), FaultKind::kTransient);
  EXPECT_EQ(injector.Decide(1), FaultKind::kNone);  // healed
  EXPECT_EQ(injector.Decide(1), FaultKind::kNone);
  EXPECT_EQ(injector.transient_injected(), 3u);
}

TEST(FaultInjectorTest, PrecedenceIsLostOverCorruptOverTransient) {
  FaultSpec spec;
  spec.lost_pages = {5};
  spec.corrupt_pages = {5, 6};
  spec.transient_pages = {5, 6, 7};
  FaultInjector injector(spec);
  EXPECT_EQ(injector.Decide(5), FaultKind::kLost);
  EXPECT_EQ(injector.Decide(6), FaultKind::kCorrupt);
  EXPECT_EQ(injector.Decide(7), FaultKind::kTransient);
}

TEST(FaultInjectorTest, ProbabilisticDecisionsAreSeedDeterministic) {
  FaultSpec spec;
  spec.lost_probability = 0.3;
  spec.corrupt_probability = 0.3;
  spec.seed = 77;
  FaultInjector a(spec);
  FaultInjector b(spec);
  for (std::uint64_t page = 0; page < 500; ++page) {
    EXPECT_EQ(a.Decide(page), b.Decide(page)) << "page " << page;
  }
  // The decisions hash (seed, page_id, kind), so a different seed gives a
  // different fault set.
  spec.seed = 78;
  FaultInjector c(spec);
  bool any_difference = false;
  for (std::uint64_t page = 0; page < 500 && !any_difference; ++page) {
    any_difference = a.Decide(page) != c.Decide(page);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjectorTest, ProbabilityExtremesSelectAllOrNothing) {
  FaultSpec all;
  all.lost_probability = 1.0;
  FaultInjector everything(all);
  FaultSpec none;
  none.lost_probability = 0.0;
  none.corrupt_probability = 0.0;
  none.transient_probability = 0.0;
  FaultInjector nothing(none);
  for (std::uint64_t page = 0; page < 100; ++page) {
    EXPECT_EQ(everything.Decide(page), FaultKind::kLost);
    EXPECT_EQ(nothing.Decide(page), FaultKind::kNone);
  }
}

TEST(FaultInjectorTest, CorruptedCopyIsStableAndFailsChecksum) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.corrupt_pages = {0};
  FaultInjector injector(spec);
  const Page& original = file.page(0);
  ASSERT_TRUE(original.ChecksumOk());
  const Page* corrupted = injector.CorruptedCopy(0, original);
  ASSERT_NE(corrupted, nullptr);
  EXPECT_FALSE(corrupted->ChecksumOk());
  // The copy is cached: repeated reads of the page observe the same
  // corrupted bytes, like a real medium would behave.
  EXPECT_EQ(corrupted, injector.CorruptedCopy(0, original));
  // The original is untouched.
  EXPECT_TRUE(original.ChecksumOk());
}

// The corrupted copy's key bounds still hold every value it carries, the
// flipped one included.
TEST(FaultInjectorTest, CorruptedCopyStaysWithinItsKeyBounds) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.seed = 3;
  FaultInjector injector(spec);
  for (std::uint64_t id = 0; id < file.page_count(); ++id) {
    const Page& original = file.page(id);
    const Page* corrupted = injector.CorruptedCopy(id, original);
    EXPECT_FALSE(corrupted->ChecksumOk());
    std::vector<Value> values(corrupted->size());
    corrupted->DecodeTo(values);
    for (const Value v : values) {
      EXPECT_LE(corrupted->min_key(), v) << "page " << id;
      EXPECT_GE(corrupted->max_key(), v) << "page " << id;
    }
    EXPECT_LE(corrupted->min_key(), original.min_key());
    EXPECT_GE(corrupted->max_key(), original.max_key());
  }
}

TEST(FaultInjectorTest, LatencySelectionIsDeterministicAndCounted) {
  FaultSpec spec;
  spec.latency_probability = 1.0;
  spec.latency_micros = 1;
  FaultInjector injector(spec);
  EXPECT_TRUE(injector.InjectsLatency(0));
  EXPECT_TRUE(injector.InjectsLatency(9));
  EXPECT_EQ(injector.latency_micros(), 1u);
  injector.RecordLatencyInjected();
  EXPECT_EQ(injector.latency_injected(), 1u);
}

// -- HeapFile integration -----------------------------------------------------

TEST(HeapFileFaultTest, LostPageReadsAsDataLoss) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.lost_pages = {1};
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  IoStats stats;
  const auto lost = file.ReadPage(1, &stats);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(stats.pages_read, 0u);  // failed reads are not charged
  // Healthy pages still read fine through the same injector.
  EXPECT_TRUE(file.ReadPage(0, &stats).ok());
  EXPECT_EQ(stats.pages_read, 1u);
}

TEST(HeapFileFaultTest, TransientPageFailsThenHeals) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.transient_pages = {0};
  spec.transient_failures_per_page = 2;
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  IoStats stats;
  auto read = file.ReadPage(0, &stats);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  read = file.ReadPage(0, &stats);
  ASSERT_FALSE(read.ok());
  read = file.ReadPage(0, &stats);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(stats.pages_read, 1u);
}

TEST(HeapFileFaultTest, CorruptPageIsCaughtByChecksum) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.corrupt_pages = {3};
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  IoStats stats;
  const auto read = file.ReadPage(3, &stats);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(read.status().message().find("checksum"), std::string::npos);
  EXPECT_GE(injector.corrupt_injected(), 1u);
}

TEST(HeapFileFaultTest, LatencyPagesStillReadCorrectly) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.latency_probability = 1.0;
  spec.latency_micros = 1;
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  IoStats stats;
  const auto read = file.ReadPage(0, &stats);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)->at(0), 0);
  EXPECT_GE(injector.latency_injected(), 1u);
}

TEST(HeapFileFaultTest, DetachRestoresFaultFreeReads) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.lost_probability = 1.0;
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  EXPECT_FALSE(file.ReadPage(0, nullptr).ok());
  file.set_fault_injector(nullptr);
  EXPECT_TRUE(file.ReadPage(0, nullptr).ok());
}

TEST(HeapFileFaultTest, ReadPageRetryingClearsTransientsAndCountsRetries) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.transient_pages = {0};
  spec.transient_failures_per_page = 3;
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 4;
  IoStats stats;
  const auto read = file.ReadPageRetrying(0, policy, &stats);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(stats.transient_retries, 3u);
  EXPECT_EQ(stats.pages_read, 1u);
}

TEST(HeapFileFaultTest, ReadPageRetryingGivesUpPastTheBudget) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.transient_pages = {0};
  spec.transient_failures_per_page = 10;
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 3;
  IoStats stats;
  const auto read = file.ReadPageRetrying(0, policy, &stats);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(stats.transient_retries, 2u);
  EXPECT_EQ(stats.pages_read, 0u);
}

TEST(HeapFileFaultTest, ReadPageRetryingDoesNotRetryLostPages) {
  HeapFile file = SmallFile();
  FaultSpec spec;
  spec.lost_pages = {0};
  FaultInjector injector(spec);
  file.set_fault_injector(&injector);
  RetryPolicy policy;
  policy.max_attempts = 5;
  IoStats stats;
  const auto read = file.ReadPageRetrying(0, policy, &stats);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(stats.transient_retries, 0u);
  EXPECT_EQ(injector.lost_injected(), 1u);
}

}  // namespace
}  // namespace equihist
