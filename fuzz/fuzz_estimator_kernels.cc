// Structure-aware differential fuzz target for the compiled estimator
// (core/compiled_estimator.h). The input decodes into a *valid* histogram
// spec — bucket count, fences (moderate or full-domain extreme), a
// non-decreasing separator sequence with forced duplicate runs (the
// Section-5 spike shapes), arbitrary counts — plus a query batch mixing
// in-domain, separator-aligned, reversed and fence-overshooting ranges.
// Properties:
//
//   - the estimate agrees with the reference bucket-walking loop
//     (core/range_estimator.h) within the documented tolerance of a few
//     ulps of the largest bucket count;
//   - estimates are finite, non-negative, and bounded by the total.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/compiled_estimator.h"
#include "core/histogram.h"
#include "core/range_estimator.h"
#include "data/workload.h"
#include "fuzz_util.h"

using equihist::fuzz::ByteStream;

namespace {

constexpr equihist::Value kValueMin =
    std::numeric_limits<equihist::Value>::min();
constexpr equihist::Value kValueMax =
    std::numeric_limits<equihist::Value>::max();

// The documented numerical contract vs the reference loop (see the
// CompiledEstimator header): a few ulps of the largest bucket count.
double Tolerance(const equihist::Histogram& histogram) {
  std::uint64_t max_count = 0;
  for (const std::uint64_t c : histogram.counts()) {
    max_count = std::max(max_count, c);
  }
  return 1e-10 * (1.0 + static_cast<double>(max_count));
}

equihist::Histogram DecodeHistogramSpec(ByteStream& stream) {
  const std::uint64_t k = 1 + stream.Below(512);
  const bool extreme_fences = (stream.U8() & 1) != 0;

  std::vector<equihist::Value> separators;
  separators.reserve(k - 1);
  equihist::Value lower_fence;
  equihist::Value upper_fence;
  if (extreme_fences) {
    // Full-domain fences; any sorted int64 sequence is a valid separator
    // set. Exercises the ValueDistance unsigned-width paths.
    lower_fence = kValueMin;
    upper_fence = kValueMax;
    for (std::uint64_t j = 0; j + 1 < k; ++j) {
      if (!separators.empty() && (stream.U8() & 3) == 0) {
        separators.push_back(separators.back());  // forced duplicate run
      } else {
        separators.push_back(static_cast<equihist::Value>(stream.I64()));
      }
    }
    std::sort(separators.begin(), separators.end());
  } else {
    // Moderate fences: separators accumulate small non-negative deltas
    // (zero = duplicate run) from the lower fence.
    lower_fence = static_cast<equihist::Value>(
        static_cast<std::int64_t>(stream.Below(1u << 20)) - (1 << 19));
    equihist::Value prev = lower_fence;
    for (std::uint64_t j = 0; j + 1 < k; ++j) {
      prev += static_cast<equihist::Value>(stream.Below(1000));
      separators.push_back(prev);
    }
    upper_fence = prev + static_cast<equihist::Value>(stream.Below(1000));
  }

  std::vector<std::uint64_t> counts;
  counts.reserve(k);
  for (std::uint64_t j = 0; j < k; ++j) {
    counts.push_back(stream.Below(100'000));  // sum stays far below 2^53
  }

  auto histogram = equihist::Histogram::Create(
      std::move(separators), std::move(counts), lower_fence, upper_fence);
  FUZZ_CHECK(histogram.ok(), "decoded spec rejected by Histogram::Create");
  return std::move(*histogram);
}

// In-domain, separator-aligned, reversed and out-of-domain queries.
equihist::RangeQuery DecodeQuery(ByteStream& stream,
                                 const equihist::Histogram& histogram) {
  const auto& seps = histogram.separators();
  equihist::RangeQuery query;
  switch (stream.U8() & 3) {
    case 0: {  // separator-aligned (exact-agreement class)
      if (!seps.empty()) {
        query.lo = seps[stream.Below(seps.size())];
        query.hi = seps[stream.Below(seps.size())];
        break;
      }
      [[fallthrough]];
    }
    case 1: {  // clamped in-domain
      const auto lo64 = static_cast<equihist::Value>(stream.I64());
      const auto hi64 = static_cast<equihist::Value>(stream.I64());
      query.lo = std::clamp(lo64, histogram.lower_fence(),
                            histogram.upper_fence());
      query.hi = std::clamp(hi64, histogram.lower_fence(),
                            histogram.upper_fence());
      break;
    }
    default: {  // raw — overshooting and reversed included
      query.lo = static_cast<equihist::Value>(stream.I64());
      query.hi = static_cast<equihist::Value>(stream.I64());
      break;
    }
  }
  return query;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 4) return 0;
  ByteStream stream(data, size);
  const equihist::Histogram histogram = DecodeHistogramSpec(stream);
  const equihist::CompiledEstimator compiled(histogram);
  const double tolerance = Tolerance(histogram);

  std::vector<equihist::RangeQuery> queries;
  const std::size_t n = 1 + stream.Below(64);
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back(DecodeQuery(stream, histogram));
  }

  // Reference agreement and sanity.
  for (const auto& query : queries) {
    const double estimate = compiled.EstimateRangeCount(query);
    FUZZ_CHECK(std::isfinite(estimate), "non-finite estimate");
    FUZZ_CHECK(estimate >= 0.0, "negative estimate");
    FUZZ_CHECK(estimate <= static_cast<double>(histogram.total()) + tolerance,
               "estimate exceeds the histogram total");
    const double reference = equihist::EstimateRangeCount(histogram, query);
    FUZZ_CHECK(std::abs(estimate - reference) <= tolerance,
               "compiled estimate outside the documented reference tolerance");
  }
  return 0;
}
