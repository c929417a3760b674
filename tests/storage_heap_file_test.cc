#include "storage/heap_file.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/page.h"

namespace equihist {
namespace {

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();

// x + d in two's complement, without signed overflow.
Value Plus(Value x, std::uint64_t d) {
  return static_cast<Value>(static_cast<std::uint64_t>(x) + d);
}

// The page's records, decoded in slot order.
std::vector<Value> Decoded(const Page& page) {
  std::vector<Value> values(page.size());
  page.DecodeTo(values);
  return values;
}

// Checks every read of `page` against `expected`, its records in slot
// order, and its bounds against theirs.
void ExpectRecords(const Page& page, const std::vector<Value>& expected) {
  ASSERT_EQ(page.size(), expected.size());
  EXPECT_EQ(Decoded(page), expected);
  for (std::uint32_t slot = 0; slot < page.size(); ++slot) {
    EXPECT_EQ(page.at(slot), expected[slot]) << "slot " << slot;
  }
  if (expected.empty()) return;
  const auto [min, max] = std::minmax_element(expected.begin(), expected.end());
  EXPECT_EQ(page.min_key(), *min);
  EXPECT_EQ(page.max_key(), *max);
}

// Two pages hold the same records, bounds and format.
void ExpectSamePage(const Page& a, const Page& b) {
  ExpectRecords(a, Decoded(b));
  EXPECT_EQ(a.offset_width(), b.offset_width());
  EXPECT_EQ(a.checksum(), b.checksum());
}

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
  for (const Value v : Decoded(page)) {
    EXPECT_LE(page.min_key(), v);
    EXPECT_GE(page.max_key(), v);
  }
}

// A page stores offsets from its minimum at the narrowest width that holds
// its key range: each range on either side of a width boundary, anywhere
// in the domain, reads back exactly.
TEST(PageTest, RoundTripsAtEveryWidthBoundary) {
  struct Case {
    std::uint64_t range;
    std::uint32_t width;
  };
  const Case cases[] = {{0, 1},          {255, 1},          {256, 2},
                        {65535, 2},      {65536, 4},        {0xFFFFFFFFu, 4},
                        {1ULL << 32, 8}, {~std::uint64_t{0}, 8}};
  for (const Case& c : cases) {
    // The lowest, a middle and the highest minimum the range allows.
    const Value top = Plus(kMax, -c.range);
    for (const Value low : {kMin, std::clamp<Value>(-1000, kMin, top), top}) {
      SCOPED_TRACE(testing::Message()
                   << "range " << c.range << " low " << low);
      const Value high = Plus(low, c.range);
      const Value mid = Plus(low, c.range / 2);
      // Neither end comes first, so the base falls and the width grows.
      const std::vector<Value> values = {
          mid, high, low, mid, Plus(low, std::min<std::uint64_t>(c.range, 1)),
          high};
      Page page(8);
      for (const Value v : values) ASSERT_TRUE(page.Append(v));
      ExpectRecords(page, values);
      EXPECT_EQ(page.offset_width(), c.width);
      EXPECT_TRUE(page.ChecksumOk());
    }
  }
}

// Every append that lowers the base or widens the range re-encodes the
// earlier slots, which read back unchanged.
TEST(PageTest, AppendWithAFallingMinimumAndAGrowingWidth) {
  const std::vector<Value> values = {1000, 1003, 990,  760,
                                     700,  71000, -(Value{1} << 33), 5};
  const std::uint32_t widths[] = {1, 1, 1, 1, 2, 4, 8, 8};
  Page page(8);
  std::vector<Value> appended;
  for (std::size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "append " << i);
    ASSERT_TRUE(page.Append(values[i]));
    appended.push_back(values[i]);
    ExpectRecords(page, appended);
    EXPECT_EQ(page.offset_width(), widths[i]);
  }
}

// Bulk appends, onto an empty or a part-filled page, build the page one
// record at a time would: same slots, bounds, width and checksum.
TEST(PageTest, AppendAllMatchesOneByOneAppend) {
  Rng rng(17);
  std::vector<Value> random(8);
  for (Value& v : random) v = static_cast<Value>(rng.Next());
  const std::vector<std::vector<Value>> inputs = {
      {5},
      {7, 7, 7},
      {300, 10, 200, 45},
      {40000, -20000, 3, 3},
      {1 << 20, -(1 << 20), 0},
      {kMax, kMin, 0, 1},
      random,
  };
  for (const std::vector<Value>& values : inputs) {
    Page single(8);
    for (const Value v : values) ASSERT_TRUE(single.Append(v));
    for (std::size_t split = 0; split <= values.size(); ++split) {
      SCOPED_TRACE(testing::Message()
                   << "first value " << values[0] << " split " << split);
      Page bulk(8);
      for (std::size_t i = 0; i < split; ++i) {
        ASSERT_TRUE(bulk.Append(values[i]));
      }
      bulk.AppendAll(std::span<const Value>(values).subspan(split));
      ExpectSamePage(bulk, single);
    }
  }
}

// A corrupted value that needs a wider width re-encodes the page: the
// other slots read back unchanged, the bounds hold the new value, and the
// checksum no longer verifies.
TEST(PageTest, CorruptValueGrowsTheWidth) {
  Page page(4);
  for (const Value v : {100, 101, 102, 103}) page.Append(v);
  ASSERT_EQ(page.offset_width(), 1u);
  const std::uint64_t recorded = page.checksum();
  page.CorruptValue(2, 102 ^ (Value{1} << 40));
  ExpectRecords(page, {100, 101, Value{1} << 40, 103});
  EXPECT_EQ(page.offset_width(), 8u);
  EXPECT_EQ(page.checksum(), recorded);
  EXPECT_FALSE(page.ChecksumOk());
  // Below the base: the minimum falls and every offset is rewritten.
  page.CorruptValue(0, 100 ^ -5);
  ExpectRecords(page, {-5, 101, Value{1} << 40, 103});
  EXPECT_FALSE(page.ChecksumOk());
}

// The checksum is FNV-1a over the decoded 8-byte values, so it does not
// depend on the width: these literals were recorded from pages that stored
// the values themselves.
TEST(PageTest, ChecksumMatchesTheRecordedLiterals) {
  Page page(8);
  for (const Value v : {Value{7}, Value{-300}, Value{70000}, Value{1} << 40,
                        Value{-5}}) {
    page.Append(v);
  }
  EXPECT_EQ(page.checksum(), 0xBD56613AA439A88FULL);
  EXPECT_TRUE(page.ChecksumOk());
  Page extremes(4);
  for (const Value v : {kMin, Value{0}, kMax}) extremes.Append(v);
  EXPECT_EQ(extremes.checksum(), 0xC4147B7B7DB72E7DULL);
  EXPECT_TRUE(extremes.ChecksumOk());
}

// AddCounts adds one per record at its key's slot of the window, for
// windows based below the page and at either end of the domain. An 8-byte
// page spans at least 2^32 keys, more than any window holds, so the count
// covers widths 1, 2 and 4.
TEST(PageTest, AddCountsMatchesAPlainCount) {
  struct Case {
    std::vector<Value> values;
    Value base;
    std::uint64_t slots;
    std::uint32_t width;
  };
  const Case cases[] = {
      {{}, 0, 4, 1},
      {{10, 12, 10, 200}, 3, 200, 1},
      {{kMax}, kMax - 2, 3, 1},
      {{kMin + 300, kMin, kMin + 7, kMin}, kMin, 301, 2},
      {{kMax, kMax - 1000, kMax, kMax - 3}, kMax - 1200, 1201, 2},
      {{-70000, 0, 5, -70000, 1}, -70010, 70016, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "base " << c.base);
    Page page(8);
    for (const Value v : c.values) page.Append(v);
    EXPECT_EQ(page.offset_width(), c.width);
    std::vector<std::uint64_t> window(c.slots, 1);
    std::vector<std::uint64_t> expected(c.slots, 1);
    for (const Value v : c.values) {
      ++expected[static_cast<std::uint64_t>(v) -
                 static_cast<std::uint64_t>(c.base)];
    }
    page.AddCounts(c.base, window);
    EXPECT_EQ(window, expected);
  }
}

// A page whose bounds show one value (min_key() == max_key()) adds size()
// to that value's slot and touches no other: a one-record page, a full
// page, and full pages at either end of the domain. A corrupted copy of
// each has wider bounds, so it is no longer single-valued; it counts
// exactly the records its DecodeTo writes.
TEST(PageTest, AddCountsAddsASingleValuedPageInOneSlot) {
  struct Case {
    Value value;
    std::uint32_t records;
    Value xor_mask;  // flips the middle record of the corrupted copy
  };
  const Case cases[] = {
      {42, 1, Value{1} << 8},
      {-7, 128, 1},
      {kMin, 128, Value{1} << 9},
      {kMax, 128, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "value " << c.value << " records "
                                    << c.records);
    Page page(128);
    for (std::uint32_t i = 0; i < c.records; ++i) page.Append(c.value);
    ASSERT_EQ(page.min_key(), page.max_key());
    EXPECT_EQ(page.full(), c.records == 128);
    // A slot on either side of the value's where the domain has one.
    const Value base = c.value == kMin ? kMin : c.value - 1;
    std::vector<std::uint64_t> window(3, 5);
    std::vector<std::uint64_t> expected = window;
    expected[static_cast<std::uint64_t>(c.value) -
             static_cast<std::uint64_t>(base)] += c.records;
    page.AddCounts(base, window);
    EXPECT_EQ(window, expected);

    Page corrupted = page;
    corrupted.CorruptValue(c.records / 2, c.xor_mask);
    ASSERT_LT(corrupted.min_key(), corrupted.max_key());
    const std::uint64_t slots =
        static_cast<std::uint64_t>(corrupted.max_key()) -
        static_cast<std::uint64_t>(corrupted.min_key()) + 1;
    std::vector<std::uint64_t> counted(slots, 0);
    std::vector<std::uint64_t> decoded(slots, 0);
    for (const Value v : Decoded(corrupted)) {
      ++decoded[static_cast<std::uint64_t>(v) -
                static_cast<std::uint64_t>(corrupted.min_key())];
    }
    corrupted.AddCounts(corrupted.min_key(), counted);
    EXPECT_EQ(counted, decoded);
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

// A bulk append onto a part-filled file builds the pages appending one
// record at a time builds.
TEST(HeapFileTest, AppendAllMatchesOneByOneAppend) {
  Rng rng(5);
  std::vector<Value> values(45);
  for (Value& v : values) v = rng.NextInRange(-400, 70000);
  values[20] = kMax;
  HeapFile single(PageConfig{64, 8});  // 8 tuples per page
  for (const Value v : values) single.Append(v);
  HeapFile bulk(PageConfig{64, 8});
  for (std::size_t i = 0; i < 3; ++i) bulk.Append(values[i]);
  bulk.AppendAll({values.begin() + 3, values.end()});
  ASSERT_EQ(bulk.page_count(), single.page_count());
  EXPECT_EQ(bulk.tuple_count(), single.tuple_count());
  for (std::uint64_t id = 0; id < single.page_count(); ++id) {
    SCOPED_TRACE(testing::Message() << "page " << id);
    ExpectSamePage(bulk.page(id), single.page(id));
  }
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

// The fault-free batch read appends the pages it is given, in order, to
// what `out` already holds, and charges what ReadPage charges for each of
// them, summed: for no ids, for fewer than its read-ahead distance, for
// more, and for repeated ids. A null `stats` charges nothing.
TEST(HeapFileTest, ReadPagesFaultFreeChargesWhatReadPageCharges) {
  HeapFile file(PageConfig{32, 8});  // 4 per page
  std::vector<Value> values(4 * 20 + 3);  // 21 pages, the last one part-full
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i);
  }
  file.AppendAll(values);
  ASSERT_EQ(file.page_count(), 21u);
  std::vector<std::uint64_t> shuffled(file.page_count());
  for (std::uint64_t id = 0; id < shuffled.size(); ++id) shuffled[id] = id;
  Rng rng(3);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  const std::vector<std::uint64_t> id_lists[] = {
      {},
      {20},
      {3, 20, 0},
      {shuffled.begin(), shuffled.begin() + HeapFile::kReadAheadPages},
      shuffled,
      {5, 5, 20, 5},
  };
  for (const std::vector<std::uint64_t>& ids : id_lists) {
    SCOPED_TRACE(testing::Message() << ids.size() << " ids");
    std::vector<const Page*> out = {&file.page(7)};
    std::vector<const Page*> expected_out = out;
    IoStats stats{.pages_read = 2,
                  .tuples_read = 9,
                  .transient_retries = 1,
                  .pages_skipped = 0,
                  .pages_corrupt = 0};
    IoStats expected = stats;
    for (const std::uint64_t id : ids) {
      expected_out.push_back(file.ReadPage(id, &expected).value());
    }
    file.ReadPagesFaultFree(ids, &stats, out);
    EXPECT_EQ(out, expected_out);
    EXPECT_EQ(stats.pages_read, expected.pages_read);
    EXPECT_EQ(stats.tuples_read, expected.tuples_read);
    EXPECT_EQ(stats.transient_retries, expected.transient_retries);
    EXPECT_EQ(stats.pages_skipped, 0u);
    EXPECT_EQ(stats.pages_corrupt, 0u);

    std::vector<const Page*> uncharged;
    file.ReadPagesFaultFree(ids, nullptr, uncharged);
    EXPECT_EQ(uncharged,
              std::vector<const Page*>(expected_out.begin() + 1,
                                       expected_out.end()));
  }
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
