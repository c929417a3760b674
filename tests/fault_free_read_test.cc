// The fault-free read against the retrying one (DESIGN.md §11). With no
// fault injector on the table, CVB's sampler reads each batch in one
// HeapFile::ReadPagesFaultFree loop; with an injector attached, every page
// goes through the per-page retrying read. An injector with an all-zero
// FaultSpec injects nothing, so every build must come out bit-identical on
// both paths: RunCvb with every validation metric and style, and every
// sampled backend, on random, partially clustered and sorted tables.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/cvb.h"
#include "data/distribution.h"
#include "stats/column_statistics.h"
#include "stats/serialization.h"
#include "storage/fault_injection.h"
#include "storage/table.h"

namespace equihist {
namespace {

constexpr LayoutKind kLayouts[] = {LayoutKind::kRandom,
                                   LayoutKind::kPartiallyClustered,
                                   LayoutKind::kSorted};

// 60,000 rows of Zipf(1) over 3,000 values, 469 pages of 128 tuples. The
// partially clustered layout leaves some pages holding a single value.
Table MakeTable(LayoutKind layout) {
  const auto freq =
      MakeZipf({.n = 60000, .domain_size = 3000, .skew = 1.0, .seed = 11});
  return Table::Create(*freq, PageConfig{8192, 64},
                       {.kind = layout, .clustered_fraction = 0.2, .seed = 3})
      .value();
}

// The same table twice, the second with an injector that injects nothing.
struct TablePair {
  explicit TablePair(LayoutKind layout)
      : plain(MakeTable(layout)), hooked(MakeTable(layout)) {
    hooked.set_fault_injector(&injector);
  }
  Table plain;
  Table hooked;
  FaultInjector injector{FaultSpec{}};
};

std::uint64_t Bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

void ExpectSameIo(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.tuples_read, b.tuples_read);
  EXPECT_EQ(a.transient_retries, b.transient_retries);
  EXPECT_EQ(a.pages_skipped, b.pages_skipped);
  EXPECT_EQ(a.pages_corrupt, b.pages_corrupt);
}

void ExpectSameCvb(const CvbResult& a, const CvbResult& b) {
  std::vector<std::uint8_t> a_bytes;
  std::vector<std::uint8_t> b_bytes;
  SerializeHistogram(a.histogram, &a_bytes);
  SerializeHistogram(b.histogram, &b_bytes);
  EXPECT_EQ(a_bytes, b_bytes);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.exhausted_table, b.exhausted_table);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.blocks_sampled, b.blocks_sampled);
  EXPECT_EQ(a.blocks_skipped, b.blocks_skipped);
  EXPECT_EQ(a.tuples_sampled, b.tuples_sampled);
  EXPECT_EQ(Bits(a.sampling_fraction), Bits(b.sampling_fraction));
  ExpectSameIo(a.io, b.io);
  EXPECT_EQ(a.sample_distinct, b.sample_distinct);
  EXPECT_EQ(a.sample_singletons, b.sample_singletons);
  EXPECT_EQ(Bits(a.density_estimate), Bits(b.density_estimate));
  EXPECT_EQ(a.heavy_hitters, b.heavy_hitters);
  EXPECT_EQ(a.sample.size(), b.sample.size());
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "iteration " << i);
    EXPECT_EQ(a.log[i].iteration, b.log[i].iteration);
    EXPECT_EQ(a.log[i].fresh_blocks, b.log[i].fresh_blocks);
    EXPECT_EQ(a.log[i].fresh_tuples, b.log[i].fresh_tuples);
    EXPECT_EQ(a.log[i].accumulated_tuples, b.log[i].accumulated_tuples);
    EXPECT_EQ(Bits(a.log[i].validation_error),
              Bits(b.log[i].validation_error));
    EXPECT_EQ(Bits(a.log[i].threshold), Bits(b.log[i].threshold));
    EXPECT_EQ(a.log[i].passed, b.log[i].passed);
  }
}

std::uint64_t SingleValuedPages(const Table& table) {
  std::uint64_t pages = 0;
  for (std::uint64_t id = 0; id < table.page_count(); ++id) {
    const Page& page = table.file().page(id);
    pages += page.min_key() == page.max_key() ? 1 : 0;
  }
  return pages;
}

TEST(FaultFreeReadTest, CvbBuildsMatchTheRetryingRead) {
  for (const LayoutKind layout : kLayouts) {
    TablePair tables(layout);
    if (layout != LayoutKind::kRandom) {
      EXPECT_GT(SingleValuedPages(tables.plain), 0u);
    }
    for (const CvbValidationMetric metric :
         {CvbValidationMetric::kRelativeDeviation,
          CvbValidationMetric::kFractionalMaxError,
          CvbValidationMetric::kClaimedDeviation}) {
      for (const CvbValidationStyle style :
           {CvbValidationStyle::kAllTuples,
            CvbValidationStyle::kOneTuplePerBlock}) {
        SCOPED_TRACE(testing::Message()
                     << LayoutKindToString(layout) << " metric "
                     << static_cast<int>(metric) << " style "
                     << static_cast<int>(style));
        CvbOptions options;
        options.k = 50;
        options.f = 0.2;
        options.metric = metric;
        options.style = style;
        options.seed = 7;
        options.threads = 1;
        const auto plain = RunCvb(tables.plain, options);
        const auto hooked = RunCvb(tables.hooked, options);
        ASSERT_TRUE(plain.ok()) << plain.status();
        ASSERT_TRUE(hooked.ok()) << hooked.status();
        EXPECT_GT(plain->io.pages_read, 0u);
        ExpectSameCvb(*plain, *hooked);
      }
    }
  }
}

TEST(FaultFreeReadTest, BackendBuildsMatchTheRetryingRead) {
  for (const LayoutKind layout : kLayouts) {
    TablePair tables(layout);
    for (const HistogramBackendId backend :
         {HistogramBackendId::kEquiHeight, HistogramBackendId::kEquiWidth,
          HistogramBackendId::kCompressed,
          HistogramBackendId::kIncrementalEquiDepth}) {
      SCOPED_TRACE(testing::Message() << LayoutKindToString(layout)
                                      << " backend "
                                      << static_cast<int>(backend));
      BackendBuildOptions options;
      options.backend = backend;
      options.buckets = 50;
      options.f = 0.2;
      options.seed = 9;
      const auto plain = BuildStatisticsWithBackend(tables.plain, options);
      const auto hooked = BuildStatisticsWithBackend(tables.hooked, options);
      ASSERT_TRUE(plain.ok()) << plain.status();
      ASSERT_TRUE(hooked.ok()) << hooked.status();
      EXPECT_GT(plain->build_cost.pages_read, 0u);
      ExpectSameIo(plain->build_cost, hooked->build_cost);
      EXPECT_EQ(Bits(plain->density), Bits(hooked->density));
      EXPECT_EQ(Bits(plain->distinct_estimate),
                Bits(hooked->distinct_estimate));
      EXPECT_EQ(plain->sample_size, hooked->sample_size);
      EXPECT_EQ(plain->heavy_hitters, hooked->heavy_hitters);
      std::vector<std::uint8_t> plain_blob;
      std::vector<std::uint8_t> hooked_blob;
      SerializeColumnStatistics(*plain, &plain_blob);
      SerializeColumnStatistics(*hooked, &hooked_blob);
      EXPECT_EQ(plain_blob, hooked_blob);
    }
  }
}

}  // namespace
}  // namespace equihist
