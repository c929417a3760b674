#include "stats/histogram_backends.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "stats/incremental_backend.h"
#include "stats/wire_format.h"

namespace equihist {
namespace {

using wire::WrapAdd;
using wire::WrapSub;

Status AccumulateChecked(std::uint64_t c, std::uint64_t* sum) {
  if (c > std::numeric_limits<std::uint64_t>::max() - *sum) {
    return Status::InvalidArgument("bucket counts overflow a 64-bit total");
  }
  *sum += c;
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- equi-height

EquiHeightModel::EquiHeightModel(Histogram histogram)
    : histogram_(std::move(histogram)), compiled_(histogram_) {}

double EquiHeightModel::EstimateRangeCount(const RangeQuery& query) const {
  return compiled_.EstimateRangeCount(query);
}

std::uint64_t EquiHeightModel::bucket_count() const {
  return histogram_.bucket_count();
}

std::uint64_t EquiHeightModel::total() const { return histogram_.total(); }

Value EquiHeightModel::lower_fence() const { return histogram_.lower_fence(); }

Value EquiHeightModel::upper_fence() const { return histogram_.upper_fence(); }

std::size_t EquiHeightModel::MemoryBytes() const {
  const std::size_t k = histogram_.bucket_count();
  // Histogram: k-1 separators + k counts. The compiled read path reports
  // its own arrays (SoA and run tables).
  const std::size_t histogram_bytes = (2 * k - 1) * sizeof(std::uint64_t);
  return sizeof(*this) + histogram_bytes + compiled_.MemoryBytes();
}

std::string EquiHeightModel::Describe() const {
  std::ostringstream os;
  os << "equi-height{k=" << histogram_.bucket_count()
     << ", n=" << FormatWithThousands(histogram_.total()) << ", domain=("
     << histogram_.lower_fence() << ", " << histogram_.upper_fence() << "]}";
  return os.str();
}

void EquiHeightModel::SerializePayload(std::vector<std::uint8_t>* out) const {
  SerializeEquiHeightPayload(histogram_, out);
}

void EquiHeightModel::SerializeEquiHeightPayload(
    const Histogram& histogram, std::vector<std::uint8_t>* out) {
  wire::PutVarint(histogram.bucket_count(), out);
  wire::PutVarint(histogram.total(), out);
  wire::PutSigned(histogram.lower_fence(), out);
  wire::PutSigned(histogram.upper_fence(), out);
  Value prev = histogram.lower_fence();
  for (Value s : histogram.separators()) {
    wire::PutSigned(WrapSub(s, prev), out);
    prev = s;
  }
  for (std::uint64_t c : histogram.counts()) wire::PutVarint(c, out);
}

Result<Histogram> EquiHeightModel::DeserializeEquiHeightPayload(
    std::span<const std::uint8_t> payload, std::size_t* consumed) {
  wire::Reader reader(payload);
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t k, reader.Varint());
  if (k == 0 || k > (1ULL << 32)) {
    return Status::InvalidArgument("implausible bucket count");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t total, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t lower, reader.Signed());
  EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t upper, reader.Signed());
  // k-1 separators and k counts still to come, each at least one byte: a
  // corrupted k announcing more elements than the buffer can possibly hold
  // is rejected before any allocation is sized from it.
  if (2 * k - 1 > reader.remaining()) {
    return Status::InvalidArgument(
        "bucket count exceeds the remaining buffer");
  }
  std::vector<Value> separators;
  separators.reserve(k - 1);
  Value prev = lower;
  for (std::uint64_t j = 0; j + 1 < k; ++j) {
    EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t delta, reader.Signed());
    prev = WrapAdd(prev, delta);
    separators.push_back(prev);
  }
  std::vector<std::uint64_t> counts;
  counts.reserve(k);
  std::uint64_t sum = 0;
  for (std::uint64_t j = 0; j < k; ++j) {
    EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t c, reader.Varint());
    EQUIHIST_RETURN_IF_ERROR(AccumulateChecked(c, &sum));
    counts.push_back(c);
  }
  if (sum != total) {
    return Status::InvalidArgument("bucket counts do not sum to total");
  }
  EQUIHIST_ASSIGN_OR_RETURN(
      Histogram histogram,
      Histogram::Create(std::move(separators), std::move(counts), lower,
                        upper));
  if (consumed != nullptr) *consumed = reader.position();
  return histogram;
}

// ----------------------------------------------------------- gmp-incremental

std::string GmpSnapshotModel::Describe() const {
  std::ostringstream os;
  os << "gmp-incremental{k=" << bucket_count()
     << ", n=" << FormatWithThousands(total()) << ", domain=(" << lower_fence()
     << ", " << upper_fence() << "]}";
  return os.str();
}

// ----------------------------------------------------------------- equi-width

double EquiWidthModel::EstimateRangeCount(const RangeQuery& query) const {
  return histogram_.EstimateRangeCount(query);
}

std::uint64_t EquiWidthModel::bucket_count() const {
  return histogram_.bucket_count();
}

std::uint64_t EquiWidthModel::total() const { return histogram_.total(); }

Value EquiWidthModel::lower_fence() const { return histogram_.lo(); }

Value EquiWidthModel::upper_fence() const { return histogram_.hi(); }

std::size_t EquiWidthModel::MemoryBytes() const {
  return sizeof(*this) +
         histogram_.counts().capacity() * sizeof(std::uint64_t);
}

std::string EquiWidthModel::Describe() const {
  std::ostringstream os;
  os << "equi-width{k=" << histogram_.bucket_count()
     << ", n=" << FormatWithThousands(histogram_.total()) << ", domain=("
     << histogram_.lo() << ", " << histogram_.hi() << "]}";
  return os.str();
}

void EquiWidthModel::SerializePayload(std::vector<std::uint8_t>* out) const {
  wire::PutVarint(histogram_.bucket_count(), out);
  wire::PutVarint(histogram_.total(), out);
  wire::PutSigned(histogram_.lo(), out);
  wire::PutSigned(histogram_.hi(), out);
  for (std::uint64_t c : histogram_.counts()) wire::PutVarint(c, out);
}

// ----------------------------------------------------------------- compressed

CompressedModel::CompressedModel(CompressedHistogram histogram)
    : histogram_(std::move(histogram)) {
  // The covered domain is the union of the singleton spikes and the
  // equi-height residual's fences. Build/FromParts guarantee at least one
  // of the two parts exists.
  const auto& singletons = histogram_.singletons();
  const Histogram* equi = histogram_.equi_height_part();
  if (singletons.empty()) {
    lower_fence_ = equi->lower_fence();
    upper_fence_ = equi->upper_fence();
  } else {
    lower_fence_ = singletons.front().value - 1;
    upper_fence_ = singletons.back().value;
    if (equi != nullptr) {
      lower_fence_ = std::min(lower_fence_, equi->lower_fence());
      upper_fence_ = std::max(upper_fence_, equi->upper_fence());
    }
  }
}

double CompressedModel::EstimateRangeCount(const RangeQuery& query) const {
  return histogram_.EstimateRangeCount(query);
}

std::uint64_t CompressedModel::bucket_count() const {
  return histogram_.bucket_budget();
}

std::uint64_t CompressedModel::total() const { return histogram_.total(); }

Value CompressedModel::lower_fence() const { return lower_fence_; }

Value CompressedModel::upper_fence() const { return upper_fence_; }

std::size_t CompressedModel::MemoryBytes() const {
  const Histogram* equi = histogram_.equi_height_part();
  const std::size_t equi_bytes =
      equi == nullptr ? 0
                      : (2 * equi->bucket_count() - 1) * sizeof(std::uint64_t);
  return sizeof(*this) +
         histogram_.singletons().capacity() *
             sizeof(CompressedHistogram::Singleton) +
         equi_bytes;
}

std::string CompressedModel::Describe() const {
  std::ostringstream os;
  os << "compressed{k=" << histogram_.bucket_budget()
     << ", singletons=" << histogram_.singletons().size()
     << ", n=" << FormatWithThousands(histogram_.total()) << ", domain=("
     << lower_fence_ << ", " << upper_fence_ << "]}";
  return os.str();
}

void CompressedModel::SerializePayload(std::vector<std::uint8_t>* out) const {
  wire::PutVarint(histogram_.bucket_budget(), out);
  wire::PutVarint(histogram_.total(), out);
  const auto& singletons = histogram_.singletons();
  wire::PutVarint(singletons.size(), out);
  Value prev = 0;
  for (const auto& s : singletons) {
    wire::PutSigned(WrapSub(s.value, prev), out);
    prev = s.value;
    wire::PutVarint(s.count, out);
  }
  const Histogram* equi = histogram_.equi_height_part();
  out->push_back(equi != nullptr ? 1 : 0);
  if (equi != nullptr) {
    EquiHeightModel::SerializeEquiHeightPayload(*equi, out);
  }
}

// ----------------------------------------------------------- fallback-uniform

double FallbackUniformModel::EstimateRangeCount(const RangeQuery& query) const {
  if (query.hi <= query.lo) return 0.0;
  if (!domain_known()) {
    return kMagicRangeSelectivity * static_cast<double>(total_);
  }
  const Value from = std::max(query.lo, lower_fence_);
  const Value to = std::min(query.hi, upper_fence_);
  if (to <= from) return 0.0;
  const double width = static_cast<double>(upper_fence_) -
                       static_cast<double>(lower_fence_);
  const double overlap =
      static_cast<double>(to) - static_cast<double>(from);
  return overlap / width * static_cast<double>(total_);
}

std::string FallbackUniformModel::Describe() const {
  std::ostringstream os;
  os << "fallback-uniform{n=" << FormatWithThousands(total_) << ", domain=";
  if (domain_known()) {
    os << "(" << lower_fence_ << ", " << upper_fence_ << "]}";
  } else {
    os << "unknown}";
  }
  return os.str();
}

void FallbackUniformModel::SerializePayload(
    std::vector<std::uint8_t>* out) const {
  wire::PutVarint(total_, out);
  wire::PutSigned(lower_fence_, out);
  wire::PutSigned(upper_fence_, out);
}

// --------------------------------------------------- registry registrations

namespace {

Result<HistogramModelPtr> DeserializeEquiHeight(
    std::span<const std::uint8_t> payload, std::size_t* consumed) {
  EQUIHIST_ASSIGN_OR_RETURN(
      Histogram histogram,
      EquiHeightModel::DeserializeEquiHeightPayload(payload, consumed));
  return HistogramModelPtr(
      std::make_shared<EquiHeightModel>(std::move(histogram)));
}

Result<HistogramModelPtr> DeserializeGmp(std::span<const std::uint8_t> payload,
                                         std::size_t* consumed) {
  EQUIHIST_ASSIGN_OR_RETURN(
      Histogram histogram,
      EquiHeightModel::DeserializeEquiHeightPayload(payload, consumed));
  return HistogramModelPtr(
      std::make_shared<GmpSnapshotModel>(std::move(histogram)));
}

Result<HistogramModelPtr> BuildEquiWidthFromSample(
    std::span<const Value> sorted_sample, std::uint64_t buckets,
    std::uint64_t population_size) {
  EQUIHIST_ASSIGN_OR_RETURN(EquiWidthHistogram histogram,
                            EquiWidthHistogram::BuildFromSample(
                                sorted_sample, buckets, population_size));
  return HistogramModelPtr(
      std::make_shared<EquiWidthModel>(std::move(histogram)));
}

Result<HistogramModelPtr> DeserializeEquiWidth(
    std::span<const std::uint8_t> payload, std::size_t* consumed) {
  wire::Reader reader(payload);
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t k, reader.Varint());
  if (k == 0 || k > (1ULL << 32)) {
    return Status::InvalidArgument("implausible bucket count");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t total, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t lo, reader.Signed());
  EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t hi, reader.Signed());
  if (k > reader.remaining()) {
    return Status::InvalidArgument(
        "bucket count exceeds the remaining buffer");
  }
  std::vector<std::uint64_t> counts;
  counts.reserve(k);
  std::uint64_t sum = 0;
  for (std::uint64_t j = 0; j < k; ++j) {
    EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t c, reader.Varint());
    EQUIHIST_RETURN_IF_ERROR(AccumulateChecked(c, &sum));
    counts.push_back(c);
  }
  if (sum != total) {
    return Status::InvalidArgument("bucket counts do not sum to total");
  }
  EQUIHIST_ASSIGN_OR_RETURN(
      EquiWidthHistogram histogram,
      EquiWidthHistogram::FromParts(std::move(counts), lo, hi));
  if (consumed != nullptr) *consumed = reader.position();
  return HistogramModelPtr(
      std::make_shared<EquiWidthModel>(std::move(histogram)));
}

Result<HistogramModelPtr> BuildCompressedFromSample(
    std::span<const Value> sorted_sample, std::uint64_t buckets,
    std::uint64_t population_size) {
  EQUIHIST_ASSIGN_OR_RETURN(CompressedHistogram histogram,
                            CompressedHistogram::BuildFromSample(
                                sorted_sample, buckets, population_size));
  return HistogramModelPtr(
      std::make_shared<CompressedModel>(std::move(histogram)));
}

Result<HistogramModelPtr> DeserializeCompressed(
    std::span<const std::uint8_t> payload, std::size_t* consumed) {
  wire::Reader reader(payload);
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t budget, reader.Varint());
  if (budget == 0 || budget > (1ULL << 32)) {
    return Status::InvalidArgument("implausible bucket budget");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t total, reader.Varint());
  // Each singleton is at least two bytes (value delta + count).
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t singleton_count,
                            reader.LengthPrefixedCount(2));
  std::vector<CompressedHistogram::Singleton> singletons;
  singletons.reserve(singleton_count);
  Value prev = 0;
  for (std::uint64_t i = 0; i < singleton_count; ++i) {
    EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t delta, reader.Signed());
    prev = WrapAdd(prev, delta);
    EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t count, reader.Varint());
    singletons.push_back(CompressedHistogram::Singleton{prev, count});
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t has_equi, reader.Byte());
  if (has_equi > 1) {
    return Status::InvalidArgument("bad equi-part flag");
  }
  std::size_t used = reader.position();
  std::optional<Histogram> equi_part;
  if (has_equi == 1) {
    std::size_t sub_consumed = 0;
    EQUIHIST_ASSIGN_OR_RETURN(Histogram equi,
                              EquiHeightModel::DeserializeEquiHeightPayload(
                                  payload.subspan(used), &sub_consumed));
    equi_part = std::move(equi);
    used += sub_consumed;
  }
  EQUIHIST_ASSIGN_OR_RETURN(
      CompressedHistogram histogram,
      CompressedHistogram::FromParts(std::move(singletons),
                                     std::move(equi_part), budget, total));
  if (consumed != nullptr) *consumed = used;
  return HistogramModelPtr(
      std::make_shared<CompressedModel>(std::move(histogram)));
}

Result<HistogramModelPtr> DeserializeFallbackUniform(
    std::span<const std::uint8_t> payload, std::size_t* consumed) {
  wire::Reader reader(payload);
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t total, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t lower, reader.Signed());
  EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t upper, reader.Signed());
  if (upper < lower) {
    return Status::InvalidArgument("fallback-uniform fences are inverted");
  }
  if (consumed != nullptr) *consumed = reader.position();
  return HistogramModelPtr(
      std::make_shared<FallbackUniformModel>(total, lower, upper));
}

}  // namespace

namespace internal {

void RegisterBuiltinHistogramBackends(HistogramBackendRegistry& registry) {
  // A fresh registry cannot collide with itself; the Status results are
  // asserted in debug builds only. Ids 1 and 2 build from CVB's sample;
  // BuildStatisticsWithBackend publishes CVB's own histogram for ids 0 and
  // 5, and ids 3 and 4 only decode.
  const Status s0 = registry.Register(
      HistogramBackendId::kEquiHeight,
      {.name = "equi-height",
       .build_from_sample = {},
       .deserialize_payload = DeserializeEquiHeight});
  const Status s1 = registry.Register(
      HistogramBackendId::kEquiWidth,
      {.name = "equi-width",
       .build_from_sample = BuildEquiWidthFromSample,
       .deserialize_payload = DeserializeEquiWidth});
  const Status s2 = registry.Register(
      HistogramBackendId::kCompressed,
      {.name = "compressed",
       .build_from_sample = BuildCompressedFromSample,
       .deserialize_payload = DeserializeCompressed});
  const Status s3 = registry.Register(
      HistogramBackendId::kGmpIncremental,
      {.name = "gmp-incremental",
       .build_from_sample = {},
       .deserialize_payload = DeserializeGmp});
  const Status s4 = registry.Register(
      HistogramBackendId::kFallbackUniform,
      {.name = "fallback-uniform",
       .build_from_sample = {},
       .deserialize_payload = DeserializeFallbackUniform});
  const Status s5 = registry.Register(
      HistogramBackendId::kIncrementalEquiDepth,
      {.name = "incremental-equi-depth",
       .build_from_sample = {},
       .deserialize_payload = DeserializeIncrementalEquiDepth});
  (void)s0;
  (void)s1;
  (void)s2;
  (void)s3;
  (void)s4;
  (void)s5;
}

}  // namespace internal
}  // namespace equihist
