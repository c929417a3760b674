#include "stats/incremental_backend.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "core/histogram_builder.h"

namespace equihist {

std::size_t IncrementalEquiDepthModel::MemoryBytes() const {
  return EquiHeightModel::MemoryBytes() + sizeof(BackingReservoir) +
         reservoir_.sample().capacity() * sizeof(Value);
}

std::string IncrementalEquiDepthModel::Describe() const {
  std::ostringstream os;
  os << "incremental-equi-depth{k=" << bucket_count()
     << ", n=" << FormatWithThousands(total()) << ", domain=(" << lower_fence()
     << ", " << upper_fence() << "], reservoir=" << reservoir_.size() << "/"
     << reservoir_.capacity() << ", dml=" << reservoir_.ops_since_seed()
     << "}";
  return os.str();
}

void IncrementalEquiDepthModel::SerializePayload(
    std::vector<std::uint8_t>* out) const {
  SerializeEquiHeightPayload(histogram(), out);
  reservoir_.SerializeTo(out);
}

Result<HistogramModelPtr> BuildIncrementalEquiDepthFromSample(
    std::span<const Value> sorted_sample, std::uint64_t buckets,
    std::uint64_t population_size) {
  if (population_size == 0) {
    return Status::InvalidArgument("population_size must be positive");
  }
  if (sorted_sample.empty()) {
    return Status::FailedPrecondition(
        "cannot seed a reservoir from an empty sample");
  }
  EQUIHIST_ASSIGN_OR_RETURN(
      BackingReservoir reservoir,
      BackingReservoir::Create(
          std::max<std::uint64_t>(sorted_sample.size(), buckets),
          /*seed=*/1));
  EQUIHIST_RETURN_IF_ERROR(
      reservoir.SeedFromSample(sorted_sample, population_size));
  EQUIHIST_ASSIGN_OR_RETURN(
      Histogram histogram,
      BuildHistogramFromSample(sorted_sample, buckets, population_size));
  return HistogramModelPtr(std::make_shared<IncrementalEquiDepthModel>(
      std::move(histogram), std::move(reservoir)));
}

Result<HistogramModelPtr> DeserializeIncrementalEquiDepth(
    std::span<const std::uint8_t> payload, std::size_t* consumed) {
  std::size_t histogram_bytes = 0;
  EQUIHIST_ASSIGN_OR_RETURN(Histogram histogram,
                            EquiHeightModel::DeserializeEquiHeightPayload(
                                payload, &histogram_bytes));
  std::size_t reservoir_bytes = 0;
  EQUIHIST_ASSIGN_OR_RETURN(
      BackingReservoir reservoir,
      BackingReservoir::Deserialize(payload.subspan(histogram_bytes),
                                    &reservoir_bytes));
  if (consumed != nullptr) *consumed = histogram_bytes + reservoir_bytes;
  return HistogramModelPtr(std::make_shared<IncrementalEquiDepthModel>(
      std::move(histogram), std::move(reservoir)));
}

}  // namespace equihist
