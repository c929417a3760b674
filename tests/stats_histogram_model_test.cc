// Tests for the pluggable HistogramModel backend layer: golden-blob
// compatibility with serialization format v1, per-backend container
// round-trips, a byte-level corruption matrix over the wire format, the
// workload scorer's report bits, and the
// end-to-end acceptance check that an externally registered backend serves
// through StatisticsManager, the planner, and serialization without any
// change to those components.

#include "stats/histogram_model.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/histogram.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "query/planner.h"
#include "sampling/reservoir.h"
#include "stats/column_statistics.h"
#include "stats/histogram_backends.h"
#include "stats/incremental_backend.h"
#include "stats/serialization.h"
#include "stats/statistics_manager.h"
#include "stats/wire_format.h"
#include "storage/table.h"

namespace equihist {
namespace {

// -- Golden v1 blobs ---------------------------------------------------------
//
// Captured from the format-v1 writer before the tagged-container change, so
// these bytes are frozen history: the v2 reader must keep decoding them
// identically forever. Source objects:
//   histogram  = Histogram::Create({-50,-50,0,7}, {3,0,10,2,5}, -100, 100)
//   statistics = {histogram, density=0.125, distinct=17.0, row_count=20,
//                 heavy_hitters={{-50,6},{7,4}}, from_full_scan=true,
//                 sample_size=20}

constexpr std::uint8_t kGoldenV1Histogram[] = {
    0xC5, 0xA2, 0xA1, 0x9A, 0x05, 0x01, 0x05, 0x14, 0xC7, 0x01, 0xC8,
    0x01, 0x64, 0x00, 0x64, 0x0E, 0x03, 0x00, 0x0A, 0x02, 0x05};

constexpr std::uint8_t kGoldenV1Statistics[] = {
    0xC5, 0xA2, 0xA1, 0x9A, 0x05, 0x01, 0x05, 0x14, 0xC7, 0x01, 0xC8,
    0x01, 0x64, 0x00, 0x64, 0x0E, 0x03, 0x00, 0x0A, 0x02, 0x05, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x3F, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x31, 0x40, 0x02, 0x64, 0x06, 0x72, 0x04, 0x01, 0x14,
    0x14};

Histogram GoldenHistogram() {
  return Histogram::Create({-50, -50, 0, 7}, {3, 0, 10, 2, 5}, -100, 100)
      .value();
}

TEST(HistogramModelGoldenTest, V1HistogramBlobDecodesIdentically) {
  const Histogram reference = GoldenHistogram();
  std::size_t consumed = 0;
  const auto restored = DeserializeHistogram(kGoldenV1Histogram, &consumed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(consumed, sizeof(kGoldenV1Histogram));
  EXPECT_EQ(restored->separators(), reference.separators());
  EXPECT_EQ(restored->counts(), reference.counts());
  EXPECT_EQ(restored->lower_fence(), reference.lower_fence());
  EXPECT_EQ(restored->upper_fence(), reference.upper_fence());
  EXPECT_EQ(restored->total(), reference.total());
}

TEST(HistogramModelGoldenTest, V1HistogramBlobDecodesAsEquiHeightModel) {
  const auto model = DeserializeHistogramModel(kGoldenV1Histogram);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ((*model)->backend_id(), HistogramBackendId::kEquiHeight);
  EXPECT_EQ((*model)->total(), 20u);
  EXPECT_EQ((*model)->bucket_count(), 5u);
  EXPECT_EQ((*model)->lower_fence(), -100);
  EXPECT_EQ((*model)->upper_fence(), 100);
  // The model estimates through the compiled read path; it must agree
  // bit-for-bit with the reference estimator over the golden histogram.
  const Histogram reference = GoldenHistogram();
  for (const RangeQuery& q :
       {RangeQuery{-100, 100}, RangeQuery{-60, -40}, RangeQuery{-50, 7},
        RangeQuery{0, 0}, RangeQuery{50, -50}}) {
    EXPECT_DOUBLE_EQ((*model)->EstimateRangeCount(q),
                     EstimateRangeCount(reference, q))
        << "(" << q.lo << ", " << q.hi << "]";
  }
}

TEST(HistogramModelGoldenTest, V1StatisticsBlobDecodesIdentically) {
  const auto restored = DeserializeColumnStatistics(kGoldenV1Statistics);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Histogram reference = GoldenHistogram();
  EXPECT_EQ(restored->histogram().separators(), reference.separators());
  EXPECT_EQ(restored->histogram().counts(), reference.counts());
  EXPECT_DOUBLE_EQ(restored->density, 0.125);
  EXPECT_DOUBLE_EQ(restored->distinct_estimate, 17.0);
  EXPECT_EQ(restored->row_count, 20u);
  ASSERT_EQ(restored->heavy_hitters.size(), 2u);
  EXPECT_EQ(restored->heavy_hitters[0].value, -50);
  EXPECT_EQ(restored->heavy_hitters[0].count, 6u);
  EXPECT_EQ(restored->heavy_hitters[1].value, 7);
  EXPECT_EQ(restored->heavy_hitters[1].count, 4u);
  EXPECT_TRUE(restored->from_full_scan);
  EXPECT_EQ(restored->sample_size, 20u);
}

TEST(HistogramModelGoldenTest, V2HistogramEncodingAddsOneTagByte) {
  // Same payload, one extra backend-id byte in the container header.
  std::vector<std::uint8_t> v2;
  SerializeHistogram(GoldenHistogram(), &v2);
  ASSERT_EQ(v2.size(), sizeof(kGoldenV1Histogram) + 1);
  // Header: varint magic (5 bytes) | version | backend id.
  EXPECT_EQ(v2[5], 2u);  // version
  EXPECT_EQ(v2[6], 0u);  // kEquiHeight
  // Payload is byte-identical to the v1 body.
  EXPECT_TRUE(std::equal(v2.begin() + 7, v2.end(),
                         std::begin(kGoldenV1Histogram) + 6));
}

// -- Golden v2 incremental blob (backend id 5) --------------------------------
//
// Frozen from the format-v2 writer when the incremental-equi-depth backend
// was introduced: the container header tags backend id 5, then the
// equi-height payload (byte-identical to the v1 body) followed by the
// BackingReservoir payload. Source object: GoldenHistogram() plus a
// deterministic reservoir — capacity 8, seed 2, seeded from
// {-50,-50,-7,0,3,7,11,42} with population 20, then Add(9) and Delete(3).

constexpr std::uint8_t kGoldenV2Incremental[] = {
    0xC5, 0xA2, 0xA1, 0x9A, 0x05, 0x02, 0x05, 0x05, 0x14, 0xC7,
    0x01, 0xC8, 0x01, 0x64, 0x00, 0x64, 0x0E, 0x03, 0x00, 0x0A,
    0x02, 0x05, 0x08, 0x02, 0x14, 0x15, 0x02, 0x02, 0x01, 0x00,
    0x07, 0x63, 0x63, 0x0D, 0x00, 0x54, 0x12, 0x16};

IncrementalEquiDepthModel GoldenIncrementalModel() {
  BackingReservoir reservoir = BackingReservoir::Create(8, 2).value();
  const std::vector<Value> sample = {-50, -50, -7, 0, 3, 7, 11, 42};
  EXPECT_TRUE(reservoir.SeedFromSample(sample, 20).ok());
  reservoir.Add(9);
  reservoir.Delete(3);
  return {GoldenHistogram(), std::move(reservoir)};
}

TEST(HistogramModelGoldenTest, V2IncrementalBlobDecodesIdentically) {
  const IncrementalEquiDepthModel reference = GoldenIncrementalModel();
  // The writer still emits these exact bytes...
  std::vector<std::uint8_t> bytes;
  SerializeHistogramModel(reference, &bytes);
  ASSERT_EQ(bytes.size(), sizeof(kGoldenV2Incremental));
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                         std::begin(kGoldenV2Incremental)));
  // ...and the reader decodes the frozen bytes back to the source object,
  // reservoir state included (the resume path depends on the counters).
  std::size_t consumed = 0;
  const auto restored =
      DeserializeHistogramModel(kGoldenV2Incremental, &consumed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(consumed, sizeof(kGoldenV2Incremental));
  EXPECT_EQ((*restored)->backend_id(),
            HistogramBackendId::kIncrementalEquiDepth);
  const auto* model =
      dynamic_cast<const IncrementalEquiDepthModel*>(restored->get());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->histogram().separators(),
            reference.histogram().separators());
  EXPECT_EQ(model->histogram().counts(), reference.histogram().counts());
  EXPECT_EQ(model->reservoir().sample(), reference.reservoir().sample());
  EXPECT_EQ(model->reservoir().population(),
            reference.reservoir().population());
  EXPECT_EQ(model->reservoir().ops_since_seed(),
            reference.reservoir().ops_since_seed());
  EXPECT_EQ(model->reservoir().delete_hits(),
            reference.reservoir().delete_hits());
  EXPECT_EQ(model->reservoir().delete_misses(),
            reference.reservoir().delete_misses());
}

// -- Golden v2 GMP snapshot blob (backend id 3) -------------------------------
//
// Frozen from the format-v2 writer when id 3 lost its builder: no build
// produces id 3 any more, so these bytes are what pins its decoder. The
// container header tags backend id 3, then the equi-height payload
// (byte-identical to the v1 body). Source object:
// GmpSnapshotModel(GoldenHistogram()).

constexpr std::uint8_t kGoldenV2GmpSnapshot[] = {
    0xC5, 0xA2, 0xA1, 0x9A, 0x05, 0x02, 0x03, 0x05, 0x14, 0xC7, 0x01,
    0xC8, 0x01, 0x64, 0x00, 0x64, 0x0E, 0x03, 0x00, 0x0A, 0x02, 0x05};

TEST(HistogramModelGoldenTest, V2GmpSnapshotBlobDecodesIdentically) {
  // The writer still emits these exact bytes...
  std::vector<std::uint8_t> bytes;
  SerializeHistogramModel(GmpSnapshotModel(GoldenHistogram()), &bytes);
  ASSERT_EQ(bytes.size(), sizeof(kGoldenV2GmpSnapshot));
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                         std::begin(kGoldenV2GmpSnapshot)));
  // ...the reader decodes the frozen bytes to backend id 3, which
  // re-encodes them byte for byte...
  std::size_t consumed = 0;
  const auto restored =
      DeserializeHistogramModel(kGoldenV2GmpSnapshot, &consumed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(consumed, sizeof(kGoldenV2GmpSnapshot));
  EXPECT_EQ((*restored)->backend_id(), HistogramBackendId::kGmpIncremental);
  std::vector<std::uint8_t> again;
  SerializeHistogramModel(**restored, &again);
  EXPECT_EQ(again, bytes);
  // ...and estimates exactly as an equi-height model over the same
  // histogram, bit for bit, query by query.
  const EquiHeightModel equi(GoldenHistogram());
  EXPECT_EQ((*restored)->total(), equi.total());
  EXPECT_EQ((*restored)->bucket_count(), equi.bucket_count());
  EXPECT_EQ((*restored)->lower_fence(), equi.lower_fence());
  EXPECT_EQ((*restored)->upper_fence(), equi.upper_fence());
  std::vector<RangeQuery> queries;
  for (Value lo = -110; lo <= 110; lo += 7) {
    for (Value hi = -110; hi <= 110; hi += 5) queries.push_back({lo, hi});
  }
  for (const RangeQuery& q : queries) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>((*restored)->EstimateRangeCount(q)),
              std::bit_cast<std::uint64_t>(equi.EstimateRangeCount(q)))
        << "(" << q.lo << ", " << q.hi << "]";
  }
}

// -- Per-backend container round-trips ---------------------------------------

// The built-in backends a build can choose, each built the way a shard
// builds it: ids 0 and 5 publish CVB's histogram, ids 1 and 2 build from
// CVB's sample.
constexpr HistogramBackendId kBuildableBackends[] = {
    HistogramBackendId::kEquiHeight, HistogramBackendId::kEquiWidth,
    HistogramBackendId::kCompressed,
    HistogramBackendId::kIncrementalEquiDepth};

Table ZipfTable(std::uint64_t n, std::uint64_t domain_size, double skew) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = domain_size, .skew = skew});
  return Table::Create(*freq, PageConfig{8192, 64},
                       {.kind = LayoutKind::kRandom})
      .value();
}

HistogramModelPtr BuildModel(const Table& table, HistogramBackendId id,
                             std::uint64_t buckets) {
  BackendBuildOptions options;
  options.backend = id;
  options.buckets = buckets;
  const auto stats = BuildStatisticsWithBackend(table, options);
  EXPECT_TRUE(stats.ok()) << static_cast<int>(id) << ": "
                          << stats.status().ToString();
  return stats.ok() ? stats->model : nullptr;
}

// Every built-in is registered; only ids 1 and 2 carry a builder.
TEST(HistogramModelRegistryTest, BuiltinsAreRegistered) {
  auto& registry = HistogramBackendRegistry::Global();
  for (const HistogramBackendId id :
       {HistogramBackendId::kEquiHeight, HistogramBackendId::kEquiWidth,
        HistogramBackendId::kCompressed, HistogramBackendId::kGmpIncremental,
        HistogramBackendId::kFallbackUniform,
        HistogramBackendId::kIncrementalEquiDepth}) {
    SCOPED_TRACE(static_cast<int>(id));
    const auto backend = registry.Find(id);
    ASSERT_TRUE(backend.ok());
    EXPECT_TRUE(backend->deserialize_payload);
    EXPECT_EQ(static_cast<bool>(backend->build_from_sample),
              id == HistogramBackendId::kEquiWidth ||
                  id == HistogramBackendId::kCompressed);
  }
  EXPECT_EQ(registry.Find(HistogramBackendId::kEquiHeight)->name,
            "equi-height");
  EXPECT_FALSE(registry.Has(static_cast<HistogramBackendId>(6)));
}

TEST(HistogramModelRegistryTest, DuplicateRegistrationIsRejected) {
  auto& registry = HistogramBackendRegistry::Global();
  HistogramBackendRegistry::Backend clone;
  clone.name = "equi-height-imposter";
  clone.build_from_sample = [](std::span<const Value>, std::uint64_t,
                               std::uint64_t) -> Result<HistogramModelPtr> {
    return Status::Internal("never called");
  };
  clone.deserialize_payload =
      [](std::span<const std::uint8_t>,
         std::size_t*) -> Result<HistogramModelPtr> {
    return Status::Internal("never called");
  };
  EXPECT_FALSE(
      registry.Register(HistogramBackendId::kEquiHeight, clone).ok());
}

// A backend needs a decoder and may lack a builder: a decode-only entry
// registers, a build-only one is rejected, and id 3 is decode-only.
TEST(HistogramModelRegistryTest, DecodeOnlyEntriesRegister) {
  HistogramBackendRegistry registry;
  HistogramBackendRegistry::Backend decode_only;
  decode_only.name = "decode-only";
  decode_only.deserialize_payload =
      [](std::span<const std::uint8_t>,
         std::size_t*) -> Result<HistogramModelPtr> {
    return Status::Internal("never called");
  };
  const auto decode_only_id = static_cast<HistogramBackendId>(200);
  const Status accepted = registry.Register(decode_only_id, decode_only);
  EXPECT_TRUE(accepted.ok()) << accepted.ToString();
  ASSERT_TRUE(registry.Has(decode_only_id));
  EXPECT_FALSE(registry.Find(decode_only_id)->build_from_sample);

  HistogramBackendRegistry::Backend build_only;
  build_only.name = "build-only";
  build_only.build_from_sample =
      [](std::span<const Value>, std::uint64_t,
         std::uint64_t) -> Result<HistogramModelPtr> {
    return Status::Internal("never called");
  };
  const auto build_only_id = static_cast<HistogramBackendId>(201);
  EXPECT_EQ(registry.Register(build_only_id, build_only).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(registry.Has(build_only_id));

  const auto gmp = HistogramBackendRegistry::Global().Find(
      HistogramBackendId::kGmpIncremental);
  ASSERT_TRUE(gmp.ok());
  EXPECT_FALSE(gmp->build_from_sample);
  EXPECT_TRUE(gmp->deserialize_payload);
}

TEST(HistogramModelRoundTripTest, EveryRegisteredBackendRoundTrips) {
  const Table table = ZipfTable(20000, 2000, 1.3);
  for (const HistogramBackendId id : kBuildableBackends) {
    SCOPED_TRACE(static_cast<int>(id));
    const HistogramModelPtr model = BuildModel(table, id, 32);
    ASSERT_NE(model, nullptr);

    std::vector<std::uint8_t> bytes;
    SerializeHistogramModel(*model, &bytes);
    std::size_t consumed = 0;
    const auto restored = DeserializeHistogramModel(bytes, &consumed);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ((*restored)->backend_id(), id);
    EXPECT_EQ((*restored)->total(), model->total());
    EXPECT_EQ((*restored)->bucket_count(), model->bucket_count());
    EXPECT_EQ((*restored)->lower_fence(), model->lower_fence());
    EXPECT_EQ((*restored)->upper_fence(), model->upper_fence());

    Rng rng(13);
    for (int i = 0; i < 200; ++i) {
      Value a = rng.NextInRange(model->lower_fence() - 10,
                                model->upper_fence() + 10);
      Value b = rng.NextInRange(model->lower_fence() - 10,
                                model->upper_fence() + 10);
      const RangeQuery q{a, b};
      EXPECT_DOUBLE_EQ((*restored)->EstimateRangeCount(q),
                       model->EstimateRangeCount(q))
          << "(" << a << ", " << b << "]";
    }
  }
}

TEST(HistogramModelRoundTripTest, TrailingGarbageIsRejected) {
  const Table table = ZipfTable(5000, 500, 1.0);
  for (const HistogramBackendId id : kBuildableBackends) {
    SCOPED_TRACE(static_cast<int>(id));
    const HistogramModelPtr model = BuildModel(table, id, 8);
    ASSERT_NE(model, nullptr);
    std::vector<std::uint8_t> bytes;
    SerializeHistogramModel(*model, &bytes);
    bytes.push_back(0x00);
    // Whole-buffer parse must reject the extra byte...
    EXPECT_FALSE(DeserializeHistogramModel(bytes).ok());
    // ...while the consumed-reporting parse accepts the valid prefix.
    std::size_t consumed = 0;
    EXPECT_TRUE(DeserializeHistogramModel(bytes, &consumed).ok());
    EXPECT_EQ(consumed, bytes.size() - 1);
  }
}

// -- Corruption matrix -------------------------------------------------------
//
// Satellite hardening check: every single-byte corruption (all 255 non-zero
// XOR masks... reduced to all 8 single-bit flips plus 0xFF to keep runtime
// sane) and every truncation of a golden encoding must come back as a clean
// Status or a structurally valid object — never UB, never a crash. Run
// under ASan/UBSan in CI.

void ExpectParsesCleanly(std::span<const std::uint8_t> bytes) {
  const auto histogram = DeserializeHistogram(bytes);
  if (histogram.ok()) {
    std::uint64_t sum = 0;
    for (std::uint64_t c : histogram->counts()) sum += c;
    EXPECT_EQ(sum, histogram->total());
    EXPECT_TRUE(std::is_sorted(histogram->separators().begin(),
                               histogram->separators().end()));
  }
  const auto model = DeserializeHistogramModel(bytes);
  if (model.ok()) {
    EXPECT_GE((*model)->bucket_count(), 1u);
    EXPECT_LE((*model)->lower_fence(), (*model)->upper_fence());
  }
  const auto stats = DeserializeColumnStatistics(bytes);
  if (stats.ok()) {
    EXPECT_NE(stats->model, nullptr);
  }
}

void RunCorruptionMatrix(std::span<const std::uint8_t> golden) {
  // Truncation at every length.
  for (std::size_t len = 0; len < golden.size(); ++len) {
    ExpectParsesCleanly(golden.subspan(0, len));
  }
  // Every byte, every single-bit flip plus full inversion.
  std::vector<std::uint8_t> mutated(golden.begin(), golden.end());
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    for (int bit = 0; bit < 9; ++bit) {
      const std::uint8_t mask =
          bit == 8 ? 0xFF : static_cast<std::uint8_t>(1u << bit);
      mutated[i] ^= mask;
      ExpectParsesCleanly(mutated);
      mutated[i] ^= mask;  // restore
    }
  }
}

TEST(SerializationCorruptionTest, GoldenV1HistogramMatrix) {
  RunCorruptionMatrix(kGoldenV1Histogram);
}

TEST(SerializationCorruptionTest, GoldenV1StatisticsMatrix) {
  RunCorruptionMatrix(kGoldenV1Statistics);
}

TEST(SerializationCorruptionTest, GoldenV2IncrementalMatrix) {
  RunCorruptionMatrix(kGoldenV2Incremental);
}

TEST(SerializationCorruptionTest, GoldenV2GmpSnapshotMatrix) {
  RunCorruptionMatrix(kGoldenV2GmpSnapshot);
}

TEST(SerializationCorruptionTest, V2StatisticsMatrixPerBackend) {
  // A fresh v2 statistics blob for every buildable backend family, built as
  // a shard builds it, plus the uniform fallback the shard assembles
  // itself: the container tag byte and each backend's payload parser all
  // get the same treatment. GoldenV2GmpSnapshotMatrix covers id 3.
  const Table table = ZipfTable(4000, 400, 1.4);
  for (const HistogramBackendId id : kBuildableBackends) {
    SCOPED_TRACE(static_cast<int>(id));
    BackendBuildOptions options;
    options.backend = id;
    options.buckets = 12;
    const auto stats = BuildStatisticsWithBackend(table, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    std::vector<std::uint8_t> bytes;
    SerializeColumnStatistics(*stats, &bytes);
    RunCorruptionMatrix(bytes);
  }
  ColumnStatistics fallback;
  fallback.model = std::make_shared<FallbackUniformModel>(4000, -3, 400);
  fallback.row_count = 4000;
  fallback.distinct_estimate = 4000.0;
  std::vector<std::uint8_t> bytes;
  SerializeColumnStatistics(fallback, &bytes);
  RunCorruptionMatrix(bytes);
}

// -- External backend, end to end --------------------------------------------
//
// The acceptance check for the backend layer: a trivial uniform-assumption
// backend with an id from the external range (>= 128) registers from test
// code and is then built, served lock-free, costed by the planner, and
// round-tripped through serialization — all through code paths that know
// nothing about it.

constexpr auto kUniformStubId = static_cast<HistogramBackendId>(200);

class UniformStubModel final : public HistogramModel {
 public:
  UniformStubModel(std::uint64_t total, Value lo, Value hi)
      : total_(total), lo_(lo), hi_(hi) {}

  HistogramBackendId backend_id() const override { return kUniformStubId; }

  double EstimateRangeCount(const RangeQuery& query) const override {
    const Value lo = std::max(query.lo, lo_);
    const Value hi = std::min(query.hi, hi_);
    if (hi <= lo) return 0.0;
    const double width = ValueDistance(lo_, hi_);
    if (width <= 0.0) return static_cast<double>(total_);
    return static_cast<double>(total_) * ValueDistance(lo, hi) / width;
  }

  std::uint64_t bucket_count() const override { return 1; }
  std::uint64_t total() const override { return total_; }
  Value lower_fence() const override { return lo_; }
  Value upper_fence() const override { return hi_; }
  std::size_t MemoryBytes() const override { return sizeof(*this); }
  std::string Describe() const override { return "UniformStub"; }

  void SerializePayload(std::vector<std::uint8_t>* out) const override {
    wire::PutVarint(total_, out);
    wire::PutSigned(lo_, out);
    wire::PutSigned(hi_, out);
  }

 private:
  std::uint64_t total_;
  Value lo_;
  Value hi_;
};

void RegisterUniformStubOnce() {
  static const bool registered = [] {
    HistogramBackendRegistry::Backend backend;
    backend.name = "uniform-stub";
    backend.build_from_sample =
        [](std::span<const Value> sample, std::uint64_t,
           std::uint64_t population_size) -> Result<HistogramModelPtr> {
      if (sample.empty()) {
        return Status::InvalidArgument("uniform stub needs a sample");
      }
      return HistogramModelPtr(std::make_shared<UniformStubModel>(
          population_size, sample.front() - 1, sample.back()));
    };
    backend.deserialize_payload =
        [](std::span<const std::uint8_t> payload,
           std::size_t* consumed) -> Result<HistogramModelPtr> {
      wire::Reader reader(payload);
      EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t total, reader.Varint());
      EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t lo, reader.Signed());
      EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t hi, reader.Signed());
      if (hi < lo) {
        return Status::InvalidArgument("uniform stub fences are inverted");
      }
      *consumed = reader.position();
      return HistogramModelPtr(
          std::make_shared<UniformStubModel>(total, lo, hi));
    };
    const Status status = HistogramBackendRegistry::Global().Register(
        kUniformStubId, std::move(backend));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return true;
  }();
  (void)registered;
}

TEST(ExternalBackendTest, ServesEndToEndWithoutConsumerChanges) {
  RegisterUniformStubOnce();

  const auto freq = MakeUniformDup(20000, 5000);  // values 1..5000, x4 each
  Table table =
      Table::Create(*freq, PageConfig{8192, 64}, {.kind = LayoutKind::kRandom})
          .value();

  // Built and served through StatisticsManager via per-column backend
  // choice — the manager code has no mention of the stub.
  StatisticsManager::Options options;
  options.buckets = 16;
  options.column_backends["t.stub"] = kUniformStubId;
  StatisticsManager manager(options);

  const auto stats = manager.GetOrBuildShared("t.stub", table);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_NE((*stats)->model, nullptr);
  EXPECT_EQ((*stats)->model->backend_id(), kUniformStubId);

  // Lock-free serving path.
  const auto estimate = manager.EstimateRange("t.stub", table, {-1000, 1000000});
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, static_cast<double>(table.tuple_count()));

  // A sibling column on the default backend coexists in the same manager.
  const auto default_stats = manager.GetOrBuildShared("t.default", table);
  ASSERT_TRUE(default_stats.ok());
  EXPECT_EQ((*default_stats)->model->backend_id(),
            HistogramBackendId::kEquiHeight);

  // Planner costs straight through the interface.
  const PlanChoice narrow = ChooseAccessPath(
      *(*stats)->model, {0, 10}, table.page_count(), 64);
  const PlanChoice wide = ChooseAccessPath(
      *(*stats)->model, {-1000, 1000000}, table.page_count(), 64);
  EXPECT_EQ(narrow.path, AccessPath::kIndexRangeScan);
  EXPECT_EQ(wide.path, AccessPath::kFullScan);

  // Serialization container frames the stub payload untouched.
  std::vector<std::uint8_t> bytes;
  SerializeColumnStatistics(**stats, &bytes);
  const auto restored = DeserializeColumnStatistics(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_NE(restored->model, nullptr);
  EXPECT_EQ(restored->model->backend_id(), kUniformStubId);
  EXPECT_DOUBLE_EQ(restored->EstimateRangeCount({0, 5000}),
                   (*stats)->EstimateRangeCount({0, 5000}));

  // The typed equi-height accessors refuse politely.
  EXPECT_EQ((*stats)->equi_height(), nullptr);
  EXPECT_EQ((*stats)->compiled(), nullptr);
}

TEST(ExternalBackendTest, WorkloadEvaluationGoesThroughTheInterface) {
  RegisterUniformStubOnce();
  const auto freq = MakeAllDistinct(10000);
  const ValueSet data = ValueSet::FromFrequencies(*freq);
  const auto backend =
      HistogramBackendRegistry::Global().Find(kUniformStubId);
  ASSERT_TRUE(backend.ok());
  const std::vector<Value> sample = {data.sorted_values().begin(),
                                     data.sorted_values().end()};
  const auto model = backend->build_from_sample(sample, 1, data.size());
  ASSERT_TRUE(model.ok());

  std::vector<RangeQuery> queries;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Value a = rng.NextInRange(0, 10000);
    Value b = rng.NextInRange(0, 10000);
    if (a > b) std::swap(a, b);
    if (a == b) continue;
    queries.push_back({a, b});
  }
  const auto report = EvaluateRangeWorkload(**model, queries, data);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Uniform assumption on all-distinct uniform data: near-exact.
  EXPECT_LT(report->max_absolute_error, 2.0);
}


// -- Workload scoring --------------------------------------------------------

// The spiky, INT64-fenced histogram of CompiledEstimatorTest's golden test,
// scored over 200 point, 200 narrow and 200 wide queries against a fixed
// truth. The expected bits were recorded from the Histogram overload of
// EvaluateRangeWorkload, which compiled the histogram itself; scoring an
// EquiHeightModel over it must keep every field.
TEST(WorkloadScoringTest, GoldenReportBitsOnAFixedSpikyHistogram) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const std::vector<Value> separators = {
      kMin, kMin, -4'000'000'000'000'000'000, -7'777'777,
      -1000, -1000, -1000, -3, 0, 0, 17, 250, 250, 99'991,
      1'000'000'007, 3'000'000'000'000'000'000, kMax - 1};
  std::vector<std::uint64_t> counts;
  for (std::size_t j = 0; j <= separators.size(); ++j) {
    counts.push_back(37 + 1009 * ((j * 7) % 11) + (j % 3) * 250'000);
  }
  const Histogram histogram =
      Histogram::Create(separators, counts, kMin, kMax).value();
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  // Half the draws sit on a separator (+-1), where the spikes' heavy
  // values live; half are raw 64-bit draws.
  const auto draw = [&]() -> Value {
    const std::uint64_t r = next();
    if ((r >> 63) != 0) return static_cast<Value>(next());
    const Value s = separators[(r >> 8) % separators.size()];
    const int nudge = static_cast<int>((r >> 4) % 3) - 1;
    if (nudge < 0 && s == kMin) return s;
    if (nudge > 0 && s == kMax) return s;
    return s + nudge;
  };
  std::vector<Value> values;
  for (int i = 0; i < 4000; ++i) values.push_back(draw());
  const ValueSet truth(std::move(values));
  std::vector<RangeQuery> queries;
  for (int q = 0; q < 600; ++q) {
    const Value x = draw();
    if (q % 3 == 0) {  // point: (x - 1, x]
      queries.push_back({x == kMin ? kMin : x - 1, x});
    } else if (q % 3 == 1) {  // narrow: (x - w, x] with w below 2^10
      const auto width = static_cast<Value>(1 + (next() >> 54));
      queries.push_back({x > kMin + width ? x - width : kMin, x});
    } else {  // wide: both ends anywhere
      const Value y = draw();
      queries.push_back({std::min(x, y), std::max(x, y)});
    }
  }
  const auto report =
      EvaluateRangeWorkload(EquiHeightModel(histogram), queries, truth);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->query_count, 600u);
  EXPECT_EQ(report->relative_query_count, 378u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report->max_absolute_error),
            0x414d242146f4f901ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report->mean_absolute_error),
            0x41205704ca90e396ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report->max_relative_error),
            0x40c59d642c8590b2ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report->mean_relative_error),
            0x409117fe1f18c75bull);
}

}  // namespace
}  // namespace equihist
