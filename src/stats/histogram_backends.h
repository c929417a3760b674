#ifndef EQUIHIST_STATS_HISTOGRAM_BACKENDS_H_
#define EQUIHIST_STATS_HISTOGRAM_BACKENDS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baseline/equi_width.h"
#include "common/result.h"
#include "core/compiled_estimator.h"
#include "core/compressed_histogram.h"
#include "core/histogram.h"
#include "stats/histogram_model.h"

namespace equihist {

// The built-in HistogramModel adapters: one per histogram family the
// repository implements. Consumers never name these types — they hold a
// HistogramModelPtr and the registry hooks construct the right adapter —
// but equi-height-specific code (CVB cross-validation, spike diagnostics)
// can downcast via ColumnStatistics' typed accessors, so the adapters are
// public.

// Equi-height (core/histogram): the paper's main structure. Serves through
// the O(log k) CompiledEstimator read path, so estimates are the compiled
// path's, bit-for-bit.
class EquiHeightModel : public HistogramModel {
 public:
  explicit EquiHeightModel(Histogram histogram);

  HistogramBackendId backend_id() const override {
    return HistogramBackendId::kEquiHeight;
  }
  double EstimateRangeCount(const RangeQuery& query) const override;
  std::uint64_t bucket_count() const override;
  std::uint64_t total() const override;
  Value lower_fence() const override;
  Value upper_fence() const override;
  std::size_t MemoryBytes() const override;
  std::string Describe() const override;
  void SerializePayload(std::vector<std::uint8_t>* out) const override;

  // The wrapped structures, for equi-height-only consumers (CVB
  // cross-validation, bucket diagnostics, the page-budget check).
  const Histogram& histogram() const { return histogram_; }
  const CompiledEstimator& compiled() const { return compiled_; }

  // The equi-height payload codec: exactly the body of serialization
  // format version 1 (varint k | varint n | zigzag fences | k-1 zigzag
  // separator deltas | k varint counts). Shared by the GMP snapshot
  // backend (identical layout) and by the v1-compatibility path of the
  // container reader.
  static void SerializeEquiHeightPayload(const Histogram& histogram,
                                         std::vector<std::uint8_t>* out);
  static Result<Histogram> DeserializeEquiHeightPayload(
      std::span<const std::uint8_t> payload, std::size_t* consumed);

 private:
  Histogram histogram_;
  CompiledEstimator compiled_;
};

// GMP incremental equi-depth snapshot (baseline/gmp_incremental, Section
// 3.4): structurally an equi-height histogram — Snapshot() returns one —
// so it reuses the whole adapter; only the wire tag and description
// differ. Decode-only: stored id 3 blobs load and re-encode, but no build
// produces one (the registry entry has no builder).
class GmpSnapshotModel : public EquiHeightModel {
 public:
  explicit GmpSnapshotModel(Histogram snapshot)
      : EquiHeightModel(std::move(snapshot)) {}

  HistogramBackendId backend_id() const override {
    return HistogramBackendId::kGmpIncremental;
  }
  std::string Describe() const override;
};

// Equi-width baseline (baseline/equi_width).
class EquiWidthModel : public HistogramModel {
 public:
  explicit EquiWidthModel(EquiWidthHistogram histogram)
      : histogram_(std::move(histogram)) {}

  HistogramBackendId backend_id() const override {
    return HistogramBackendId::kEquiWidth;
  }
  double EstimateRangeCount(const RangeQuery& query) const override;
  std::uint64_t bucket_count() const override;
  std::uint64_t total() const override;
  Value lower_fence() const override;
  Value upper_fence() const override;
  std::size_t MemoryBytes() const override;
  std::string Describe() const override;
  void SerializePayload(std::vector<std::uint8_t>* out) const override;

  const EquiWidthHistogram& histogram() const { return histogram_; }

 private:
  EquiWidthHistogram histogram_;
};

// Compressed histogram (core/compressed_histogram, Section 5): exact
// singletons plus an equi-height residual.
class CompressedModel : public HistogramModel {
 public:
  explicit CompressedModel(CompressedHistogram histogram);

  HistogramBackendId backend_id() const override {
    return HistogramBackendId::kCompressed;
  }
  double EstimateRangeCount(const RangeQuery& query) const override;
  std::uint64_t bucket_count() const override;
  std::uint64_t total() const override;
  Value lower_fence() const override;
  Value upper_fence() const override;
  std::size_t MemoryBytes() const override;
  std::string Describe() const override;
  void SerializePayload(std::vector<std::uint8_t>* out) const override;

  const CompressedHistogram& histogram() const { return histogram_; }

 private:
  CompressedHistogram histogram_;
  Value lower_fence_ = 0;
  Value upper_fence_ = 0;
};

// Uniform fallback (DESIGN.md §11): the metadata-only model the
// StatisticsManager publishes when a column has no trustworthy histogram —
// every build has failed on storage faults and nothing was ever served.
// With a known domain it interpolates uniformly over (lower, upper]; with
// the unknown-domain sentinel (lower_fence == upper_fence, the shape the
// manager builds from a bare row count) it answers any non-degenerate
// range with the classical System-R magic selectivity of 1/3.
// Decode-only: the shard constructs it itself (MakeFallbackSnapshot), so
// its registry entry has no builder and no build can choose it.
class FallbackUniformModel : public HistogramModel {
 public:
  static constexpr double kMagicRangeSelectivity = 1.0 / 3.0;

  // Requires upper_fence >= lower_fence; equal fences mean "domain
  // unknown".
  FallbackUniformModel(std::uint64_t total, Value lower_fence,
                       Value upper_fence)
      : total_(total), lower_fence_(lower_fence), upper_fence_(upper_fence) {}

  HistogramBackendId backend_id() const override {
    return HistogramBackendId::kFallbackUniform;
  }
  double EstimateRangeCount(const RangeQuery& query) const override;
  std::uint64_t bucket_count() const override { return 1; }
  std::uint64_t total() const override { return total_; }
  Value lower_fence() const override { return lower_fence_; }
  Value upper_fence() const override { return upper_fence_; }
  std::size_t MemoryBytes() const override { return sizeof(*this); }
  std::string Describe() const override;
  void SerializePayload(std::vector<std::uint8_t>* out) const override;

  bool domain_known() const { return upper_fence_ > lower_fence_; }

 private:
  std::uint64_t total_;
  Value lower_fence_;
  Value upper_fence_;
};

}  // namespace equihist

#endif  // EQUIHIST_STATS_HISTOGRAM_BACKENDS_H_
