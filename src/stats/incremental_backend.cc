#include "stats/incremental_backend.h"

#include <sstream>
#include <utility>

#include "common/string_util.h"

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
