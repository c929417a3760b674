#ifndef EQUIHIST_STATS_INCREMENTAL_BACKEND_H_
#define EQUIHIST_STATS_INCREMENTAL_BACKEND_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "sampling/reservoir.h"
#include "stats/histogram_backends.h"
#include "stats/histogram_model.h"

namespace equihist {

// The incremental-equi-depth backend (DESIGN.md §15): an equi-height
// histogram that carries its live backing reservoir, so the owning
// StatisticsManager can refresh it in O(Δ) by replaying DML through the
// GMP split/merge maintenance (baseline/gmp_incremental) instead of
// re-sampling the table. To the planner it is a normal HistogramModel —
// the reservoir only matters to the maintenance machinery and the wire
// codec.
//
// Payload layout (after the v2 container header): the equi-height payload
// (EquiHeightModel codec, byte-identical) followed by the reservoir
// payload (BackingReservoir codec). Both halves are parsed by hardened
// wire_format readers; corrupted bytes yield Status, never UB.
class IncrementalEquiDepthModel final : public EquiHeightModel {
 public:
  IncrementalEquiDepthModel(Histogram snapshot, BackingReservoir reservoir)
      : EquiHeightModel(std::move(snapshot)),
        reservoir_(std::move(reservoir)) {}

  HistogramBackendId backend_id() const override {
    return HistogramBackendId::kIncrementalEquiDepth;
  }
  std::size_t MemoryBytes() const override;
  std::string Describe() const override;
  void SerializePayload(std::vector<std::uint8_t>* out) const override;

  // The backing sample this histogram was maintained against; the
  // maintenance resume path (IncrementalEquiDepth::FromState) copies it.
  const BackingReservoir& reservoir() const { return reservoir_; }

 private:
  BackingReservoir reservoir_;
};

// The registry's decoder for HistogramBackendId::kIncrementalEquiDepth
// (name "incremental-equi-depth"). The entry has no builder:
// BuildStatisticsWithBackend publishes CVB's histogram and seeds the
// reservoir from CVB's sample itself.
Result<HistogramModelPtr> DeserializeIncrementalEquiDepth(
    std::span<const std::uint8_t> payload, std::size_t* consumed);

}  // namespace equihist

#endif  // EQUIHIST_STATS_INCREMENTAL_BACKEND_H_
