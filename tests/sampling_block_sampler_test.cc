#include "sampling/block_sampler.h"

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "data/generator.h"
#include "storage/fault_injection.h"
#include "storage/table.h"

namespace equihist {
namespace {

// A table whose page contents are identifiable: page p holds values
// p*B .. p*B + B-1.
Table MakePageTaggedTable(std::uint64_t pages, std::uint32_t per_page) {
  std::vector<Value> values;
  for (std::uint64_t p = 0; p < pages; ++p) {
    for (std::uint32_t i = 0; i < per_page; ++i) {
      values.push_back(static_cast<Value>(p * per_page + i));
    }
  }
  return Table::CreateFromValues(values,
                                 PageConfig{per_page * 8, 8})
      .value();
}

std::set<std::uint64_t> PagesOf(const std::vector<Value>& sample,
                                std::uint32_t per_page) {
  std::set<std::uint64_t> pages;
  for (Value v : sample) pages.insert(static_cast<std::uint64_t>(v) / per_page);
  return pages;
}

TEST(BlockSamplerTest, WithoutReplacementDrawsWholeDistinctPages) {
  Table table = MakePageTaggedTable(20, 16);
  Rng rng(1);
  IoStats stats;
  const auto sample = SampleBlocksWithoutReplacement(table, 5, rng, &stats);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 5u * 16u);
  EXPECT_EQ(stats.pages_read, 5u);
  EXPECT_EQ(stats.tuples_read, 80u);
  EXPECT_EQ(PagesOf(*sample, 16).size(), 5u);  // distinct pages
}

TEST(BlockSamplerTest, WithoutReplacementAllPagesIsFullScan) {
  Table table = MakePageTaggedTable(10, 4);
  Rng rng(2);
  auto sample = SampleBlocksWithoutReplacement(table, 10, rng, nullptr);
  ASSERT_TRUE(sample.ok());
  std::sort(sample->begin(), sample->end());
  EXPECT_EQ(sample->size(), 40u);
  EXPECT_EQ(sample->front(), 0);
  EXPECT_EQ(sample->back(), 39);
}

TEST(BlockSamplerTest, WithoutReplacementRejectsOversample) {
  Table table = MakePageTaggedTable(10, 4);
  Rng rng(3);
  EXPECT_FALSE(SampleBlocksWithoutReplacement(table, 11, rng, nullptr).ok());
}

TEST(IncrementalBlockSamplerTest, BatchesNeverRepeatPages) {
  Table table = MakePageTaggedTable(32, 4);
  IncrementalBlockSampler sampler(&table, 5);
  std::set<std::uint64_t> seen;
  for (int batch = 0; batch < 4; ++batch) {
    const auto values = sampler.NextBatch(8, nullptr);
    const auto pages = PagesOf(values, 4);
    EXPECT_EQ(pages.size(), 8u);
    for (std::uint64_t p : pages) {
      EXPECT_TRUE(seen.insert(p).second) << "page repeated across batches";
    }
  }
  EXPECT_EQ(seen.size(), 32u);
  EXPECT_EQ(sampler.pages_remaining(), 0u);
}

TEST(IncrementalBlockSamplerTest, ExhaustionReturnsEmpty) {
  Table table = MakePageTaggedTable(3, 4);
  IncrementalBlockSampler sampler(&table, 6);
  EXPECT_EQ(sampler.NextBatch(2, nullptr).size(), 8u);
  // Asks for 5 but only 1 page remains.
  EXPECT_EQ(sampler.NextBatch(5, nullptr).size(), 4u);
  EXPECT_TRUE(sampler.NextBatch(1, nullptr).empty());
  EXPECT_EQ(sampler.pages_consumed(), 3u);
}

TEST(IncrementalBlockSamplerTest, PageOffsetsMarkBlockBoundaries) {
  Table table = MakePageTaggedTable(6, 4);
  IncrementalBlockSampler sampler(&table, 7);
  std::vector<std::size_t> offsets;
  const auto values = sampler.NextBatch(3, nullptr, &offsets);
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 4u);
  EXPECT_EQ(offsets[2], 8u);
  // Each chunk is one physical page.
  for (std::size_t p = 0; p < offsets.size(); ++p) {
    const std::size_t begin = offsets[p];
    const std::size_t end = p + 1 < offsets.size() ? offsets[p + 1] : values.size();
    const auto pages = PagesOf({values.begin() + begin, values.begin() + end}, 4);
    EXPECT_EQ(pages.size(), 1u);
  }
}

TEST(IncrementalBlockSamplerTest, DeterministicInSeed) {
  Table table = MakePageTaggedTable(16, 4);
  IncrementalBlockSampler a(&table, 9);
  IncrementalBlockSampler b(&table, 9);
  EXPECT_EQ(a.NextBatch(5, nullptr), b.NextBatch(5, nullptr));
  IncrementalBlockSampler c(&table, 10);
  EXPECT_NE(a.NextBatch(5, nullptr), c.NextBatch(5, nullptr));
}

TEST(IncrementalBlockSamplerTest, ChargesIoPerPage) {
  Table table = MakePageTaggedTable(8, 4);
  IncrementalBlockSampler sampler(&table, 11);
  IoStats stats;
  sampler.NextBatch(3, &stats);
  EXPECT_EQ(stats.pages_read, 3u);
  EXPECT_EQ(stats.tuples_read, 12u);
}

// Ids of sampled pages of a page-tagged table, in the order handed out.
std::vector<std::uint64_t> PageIds(const std::vector<const Page*>& pages,
                                   std::uint32_t per_page) {
  std::vector<std::uint64_t> ids;
  for (const Page* page : pages) {
    ids.push_back(static_cast<std::uint64_t>(page->at(0)) / per_page);
  }
  return ids;
}

TEST(IncrementalBlockSamplerTest, NextPagesNeverRepeatPages) {
  Table table = MakePageTaggedTable(32, 4);
  IncrementalBlockSampler sampler(&table, 5);
  std::set<std::uint64_t> seen;
  for (int batch = 0; batch < 4; ++batch) {
    const auto pages = sampler.NextPages(8, nullptr);
    ASSERT_EQ(pages.size(), 8u);
    for (const std::uint64_t p : PageIds(pages, 4)) {
      EXPECT_TRUE(seen.insert(p).second) << "page repeated across batches";
    }
  }
  EXPECT_EQ(seen.size(), 32u);
  EXPECT_EQ(sampler.pages_remaining(), 0u);
}

TEST(IncrementalBlockSamplerTest, NextPagesExhaustionReturnsNone) {
  Table table = MakePageTaggedTable(3, 4);
  IncrementalBlockSampler sampler(&table, 6);
  EXPECT_EQ(sampler.NextPages(2, nullptr).size(), 2u);
  // Asks for 5 but only 1 page remains.
  EXPECT_EQ(sampler.NextPages(5, nullptr).size(), 1u);
  EXPECT_TRUE(sampler.NextPages(1, nullptr).empty());
  EXPECT_EQ(sampler.pages_consumed(), 3u);
}

// The views are the table's own pages, and NextBatch copies them in the
// same order, its offsets marking where each page starts.
TEST(IncrementalBlockSamplerTest, NextPagesAreTheTablePagesNextBatchCopies) {
  Table table = MakePageTaggedTable(6, 4);
  IncrementalBlockSampler viewed(&table, 7);
  IncrementalBlockSampler copied(&table, 7);
  const auto pages = viewed.NextPages(3, nullptr);
  std::vector<std::size_t> offsets;
  const auto values = copied.NextBatch(3, nullptr, &offsets);
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 4, 8}));
  // Sized once, not grown page by page (DESIGN.md §8).
  EXPECT_EQ(values.capacity(), values.size());
  std::vector<Value> concatenated;
  for (const Page* page : pages) {
    const std::uint64_t id = static_cast<std::uint64_t>(page->at(0)) / 4;
    EXPECT_EQ(page, &table.file().page(id));
    concatenated.resize(concatenated.size() + page->size());
    page->DecodeTo(std::span<Value>(concatenated).last(page->size()));
  }
  EXPECT_EQ(concatenated, values);
}

TEST(IncrementalBlockSamplerTest, NextPagesDeterministicInSeed) {
  Table table = MakePageTaggedTable(16, 4);
  IncrementalBlockSampler a(&table, 9);
  IncrementalBlockSampler b(&table, 9);
  EXPECT_EQ(a.NextPages(5, nullptr), b.NextPages(5, nullptr));
  IncrementalBlockSampler c(&table, 10);
  EXPECT_NE(a.NextPages(5, nullptr), c.NextPages(5, nullptr));
}

TEST(IncrementalBlockSamplerTest, NextPagesChargesIoPerPage) {
  Table table = MakePageTaggedTable(8, 4);
  IncrementalBlockSampler sampler(&table, 11);
  IoStats stats;
  sampler.NextPages(3, &stats);
  EXPECT_EQ(stats.pages_read, 3u);
  EXPECT_EQ(stats.tuples_read, 12u);
}

// Under transient, lost and corrupt pages, NextPages skips and tops up
// exactly as the sampler that read each batch into one copied vector: the
// pages and IoStats below were recorded from that sampler.
TEST(IncrementalBlockSamplerTest, NextPagesPinTheSkipAndTopUpRuleUnderFaults) {
  struct Batch {
    std::vector<std::uint64_t> pages;
    IoStats io;  // pages_read, tuples_read, retries, skipped, corrupt
    std::uint64_t skipped_total;
  };
  struct Scenario {
    std::uint64_t table_pages;
    FaultSpec spec;
    std::uint64_t seed;
    std::uint64_t batch_blocks;
    std::vector<Batch> batches;  // the last one is empty: exhausted
  };
  const Scenario scenarios[] = {
      // Explicit pages; the transient ones heal within the retry budget.
      {40,
       {.transient_pages = {3, 17, 25},
        .lost_pages = {5, 21},
        .corrupt_pages = {8, 33},
        .transient_failures_per_page = 2},
       13,
       6,
       {{{34, 39, 11, 20, 22, 6}, {6, 24, 0, 1, 1}, 1},
        {{12, 28, 24, 29, 16, 26}, {6, 24, 0, 2, 1}, 3},
        {{18, 17, 27, 14, 7, 15}, {6, 24, 2, 0, 0}, 3},
        {{36, 23, 32, 38, 30, 19}, {6, 24, 0, 0, 0}, 3},
        {{13, 37, 31, 4, 25, 2}, {6, 24, 2, 0, 0}, 3},
        {{1, 9, 10, 35, 3, 0}, {6, 24, 2, 1, 0}, 4},
        {{}, {0, 0, 0, 0, 0}, 4}}},
      // Hashed faults; transient pages outlast the retry budget and are
      // skipped too.
      {64,
       {.transient_probability = 0.3,
        .lost_probability = 0.1,
        .corrupt_probability = 0.1,
        .transient_failures_per_page = 3,
        .seed = 9},
       21,
       10,
       {{{14, 2, 41, 1, 46, 19, 52, 16, 56, 3}, {10, 40, 0, 2, 2}, 2},
        {{35, 45, 40, 7, 8, 32, 23, 15, 18, 36}, {10, 40, 6, 5, 1}, 7},
        {{50, 6, 42, 5, 34, 39, 11, 17, 54, 60}, {10, 40, 4, 3, 0}, 10},
        {{62, 12, 26, 9, 20, 13, 37, 55, 38, 44}, {10, 40, 14, 12, 2}, 22},
        {{28, 53}, {2, 8, 0, 0, 0}, 22},
        {{}, {0, 0, 0, 0, 0}, 22}}},
  };
  for (const Scenario& scenario : scenarios) {
    Table table = MakePageTaggedTable(scenario.table_pages, 4);
    FaultInjector injector(scenario.spec);
    table.set_fault_injector(&injector);
    IncrementalBlockSampler sampler(&table, scenario.seed);
    for (std::size_t b = 0; b < scenario.batches.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "pages " << scenario.table_pages
                                      << " batch " << b);
      const Batch& want = scenario.batches[b];
      IoStats io;
      EXPECT_EQ(PageIds(sampler.NextPages(scenario.batch_blocks, &io), 4),
                want.pages);
      EXPECT_EQ(io.pages_read, want.io.pages_read);
      EXPECT_EQ(io.tuples_read, want.io.tuples_read);
      EXPECT_EQ(io.transient_retries, want.io.transient_retries);
      EXPECT_EQ(io.pages_skipped, want.io.pages_skipped);
      EXPECT_EQ(io.pages_corrupt, want.io.pages_corrupt);
      EXPECT_EQ(sampler.pages_skipped(), want.skipped_total);
    }
  }
}

// With no fault injector NextPages reads each batch in one
// HeapFile::ReadPagesFaultFree loop; with an injector that injects
// nothing, each page goes through the retrying read. Both hand out the
// same pages in the same order, charge the same IoStats and consume the
// same permutation entries, batch by batch: on tables with fewer pages
// than the read-ahead distance, and with batches that run past the end of
// the permutation.
TEST(IncrementalBlockSamplerTest, FaultFreeReadMatchesTheRetryingRead) {
  struct Case {
    std::uint64_t table_pages;
    std::vector<std::uint64_t> batches;
  };
  const std::uint64_t ahead = HeapFile::kReadAheadPages;
  const Case cases[] = {
      {1, {1, 1}},
      {ahead - 1, {2, ahead, 1}},
      {ahead, {ahead, 1}},
      {ahead + 1, {ahead - 2, ahead}},
      {100, {ahead + 3, 0, 40, 1, 60, 5}},
  };
  for (const Case& c : cases) {
    Table plain = MakePageTaggedTable(c.table_pages, 4);
    Table hooked = MakePageTaggedTable(c.table_pages, 4);
    FaultInjector injector(FaultSpec{});
    hooked.set_fault_injector(&injector);
    IncrementalBlockSampler fault_free(&plain, 23);
    IncrementalBlockSampler retrying(&hooked, 23);
    for (std::size_t b = 0; b < c.batches.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "pages " << c.table_pages
                                      << " batch " << b);
      const std::uint64_t expected_size =
          std::min(c.batches[b], fault_free.pages_remaining());
      IoStats plain_io;
      IoStats hooked_io;
      const auto got = fault_free.NextPages(c.batches[b], &plain_io);
      const auto want = retrying.NextPages(c.batches[b], &hooked_io);
      ASSERT_EQ(got.size(), expected_size);
      EXPECT_EQ(PageIds(got, 4), PageIds(want, 4));
      for (const Page* page : got) {
        const std::uint64_t id = static_cast<std::uint64_t>(page->at(0)) / 4;
        EXPECT_EQ(page, &plain.file().page(id));
      }
      EXPECT_EQ(plain_io.pages_read, hooked_io.pages_read);
      EXPECT_EQ(plain_io.tuples_read, hooked_io.tuples_read);
      EXPECT_EQ(plain_io.transient_retries, hooked_io.transient_retries);
      EXPECT_EQ(plain_io.pages_skipped, hooked_io.pages_skipped);
      EXPECT_EQ(plain_io.pages_corrupt, hooked_io.pages_corrupt);
      EXPECT_EQ(plain_io.pages_read, expected_size);
      EXPECT_EQ(fault_free.pages_consumed(), retrying.pages_consumed());
      EXPECT_EQ(fault_free.pages_skipped(), retrying.pages_skipped());
    }
    EXPECT_EQ(fault_free.pages_remaining(), retrying.pages_remaining());
  }
}

}  // namespace
}  // namespace equihist
