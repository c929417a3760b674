#ifndef EQUIHIST_COMMON_METRICS_H_
#define EQUIHIST_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace equihist::metrics {

// A lock-free metrics plane (DESIGN.md §16), after ClickHouse's
// CurrentMetrics / CurrentHistogramMetrics idiom: every metric is a slot
// of a fixed enum-indexed array of relaxed atomics. Recording a sample is
// a single `fetch_add(std::memory_order_relaxed)` — no locks, no
// allocation, no clock reads on counter paths — so the statistics fleet
// leaves the plane on under full serving traffic. Counters and histograms
// keep kStripes cache-line-aligned copies of their slots; each thread
// writes the stripe it was dealt round-robin on its first write, so
// threads serving side by side do not bounce one line between their
// cores. Readers sum the stripes. Gauges stay one slot each: GaugeSet is
// last-writer-wins. Readers take relaxed snapshots: values are each
// individually exact but mutually unordered, which is the standard
// monitoring contract.
//
// Each StatisticsShard owns a MetricsPlane; the fleet's scheduler owns
// another; StatisticsFleet::MetricsJson() exports them all.

// Monotonic event counters.
enum class Counter : std::size_t {
  kEstimateQueries = 0,     // range estimates served (scalar + batch)
  kEstimateBatches,         // EstimateBatch calls
  kServingCacheRefreshes,   // slow-path snapshot resolutions
  kBuildsCompleted,         // full from-table builds published
  kBuildsFailed,            // build attempts that returned an error
  kIncrementalRefreshes,    // O(delta) reservoir-backed publishes
  kFallbackPublishes,       // uniform-fallback snapshots published
  kDmlRecords,              // RecordModifications/Insert/Delete calls
  // Always 0: the fleet no longer combines concurrent batches. Kept so
  // readers of the metrics plane and its JSON see the same names.
  kCoalescedRequests,
  kWireFramesServed,        // wire frames dispatched successfully
  kWireFrameErrors,         // wire frames rejected (corrupt or failed)
  kSchedulerEnqueued,       // build requests admitted to the queue
  kSchedulerCoalesced,      // requests merged into an already-queued build
  kSchedulerCompleted,      // scheduled builds that finished OK
  kSchedulerFailed,         // scheduled builds that returned an error
  // Fleet transport client (stats/transport_client.h).
  kTransportRequests,        // Call() invocations (before retries/hedges)
  kTransportRetries,         // retry attempts actually taken
  kTransportHedges,          // hedge attempts launched
  kTransportHedgeWins,       // exchanges where the hedge finished first
  kTransportDeadlineExceeded,  // calls that failed with the budget spent
  kTransportBackpressure,    // typed kResourceExhausted shed rejections seen
  kTransportBreakerOpens,    // per-peer breaker open transitions
  kTransportBreakerFastFails,  // calls rejected with every breaker open
  kTransportErrors,          // calls that returned any non-OK status
  // Fleet transport server (stats/transport.h).
  kServerFramesServed,       // frames admitted, served, and replied to
  kServerRejects,            // typed rejection frames sent (any cause)
  kServerShedDrops,          // queued work shed on overflow (load shedding)
  kServerExpiredDrops,       // work dropped at admission: deadline expired
  kServerConnections,        // connections accepted over the lifetime
  kCount,
};

// Instantaneous levels (set/add; may go up and down).
enum class Gauge : std::size_t {
  kQueueDepth = 0,         // build requests waiting for admission
  kInflightBuilds,         // builds currently running under the budget
  kServerQueueDepth,       // transport frames waiting for a serving slot
  kServerActiveConnections,  // transport connections currently open
  kCount,
};

// Sample-distribution metrics with power-of-two buckets: bucket i counts
// samples in (2^(i-1), 2^i]; the last bucket is the +inf overflow. Sum and
// count ride along, so mean and coarse percentiles fall out of a snapshot.
enum class Hist : std::size_t {
  kBuildLatencyMicros = 0,  // wall time of one published build
  kEstimateBatchSize,       // requests per EstimateBatch call
  kCoalescedBatchSize,      // always empty, like kCoalescedRequests
  kTransportRoundTripMicros,  // client-observed wall time per exchange
  kServerQueueWaitMicros,     // decode-to-serve wait per admitted frame
  kCount,
};

inline constexpr std::size_t kHistBuckets = 20;  // 2^0 .. 2^18, +inf

// Per-thread copies of the counter and histogram slots. Eight cover the
// serving threads of one process (server readers, callers, scheduler)
// with few threads sharing a stripe; a plane is about 9 KB.
inline constexpr std::size_t kStripes = 8;
inline constexpr std::size_t kCacheLineBytes = 64;

// Stable snake_case names for JSON export and logs.
const char* Name(Counter counter);
const char* Name(Gauge gauge);
const char* Name(Hist hist);

class MetricsPlane {
 public:
  MetricsPlane() = default;
  MetricsPlane(const MetricsPlane&) = delete;
  MetricsPlane& operator=(const MetricsPlane&) = delete;

  void Increment(Counter counter, std::uint64_t delta = 1) noexcept {
    ThreadStripe().counters[Index(counter)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  void GaugeSet(Gauge gauge, std::uint64_t value) noexcept {
    gauges_[Index(gauge)].store(value, std::memory_order_relaxed);
  }

  void GaugeAdd(Gauge gauge, std::int64_t delta) noexcept {
    gauges_[Index(gauge)].fetch_add(static_cast<std::uint64_t>(delta),
                                    std::memory_order_relaxed);
  }

  // Records one sample into the metric's power-of-two bucket. Still a
  // handful of relaxed atomic adds — safe on any hot path that already
  // knows `value` (the caller pays for any clock read).
  void Observe(Hist hist, std::uint64_t value) noexcept {
    HistSlots& slots = ThreadStripe().hists[Index(hist)];
    slots.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    slots.count.fetch_add(1, std::memory_order_relaxed);
    slots.sum.fetch_add(value, std::memory_order_relaxed);
  }

  // Counter and histogram reads sum the stripes.
  std::uint64_t counter(Counter c) const noexcept {
    return SumStripes([c](const Stripe& s) -> const auto& {
      return s.counters[Index(c)];
    });
  }
  std::uint64_t gauge(Gauge g) const noexcept {
    return gauges_[Index(g)].load(std::memory_order_relaxed);
  }
  std::uint64_t hist_count(Hist h) const noexcept {
    return SumStripes([h](const Stripe& s) -> const auto& {
      return s.hists[Index(h)].count;
    });
  }
  std::uint64_t hist_sum(Hist h) const noexcept {
    return SumStripes([h](const Stripe& s) -> const auto& {
      return s.hists[Index(h)].sum;
    });
  }
  std::uint64_t hist_bucket(Hist h, std::size_t bucket) const noexcept {
    return SumStripes([h, bucket](const Stripe& s) -> const auto& {
      return s.hists[Index(h)].buckets[bucket];
    });
  }

  // The exclusive upper bound of bucket `i` (last bucket: +inf, rendered
  // as "inf" in JSON).
  static std::uint64_t BucketUpperBound(std::size_t bucket) {
    return std::uint64_t{1} << bucket;
  }

  static std::size_t BucketOf(std::uint64_t value) noexcept {
    std::size_t bucket = 0;
    while (bucket + 1 < kHistBuckets &&
           value > (std::uint64_t{1} << bucket)) {
      ++bucket;
    }
    return bucket;
  }

  // One relaxed-snapshot JSON object:
  //   {"counters":{...},"gauges":{...},"histograms":{"name":
  //     {"count":..,"sum":..,"buckets":[{"le":..,"count":..},...]}}}
  // Zero-count histogram buckets are elided to keep exports compact.
  std::string ToJson() const;

 private:
  struct HistSlots {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };

  static constexpr std::size_t Index(Counter c) {
    return static_cast<std::size_t>(c);
  }
  static constexpr std::size_t Index(Gauge g) {
    return static_cast<std::size_t>(g);
  }
  static constexpr std::size_t Index(Hist h) {
    return static_cast<std::size_t>(h);
  }

  // One thread's copy of every counter and histogram slot, on lines of
  // its own.
  struct alignas(kCacheLineBytes) Stripe {
    std::array<std::atomic<std::uint64_t>,
               static_cast<std::size_t>(Counter::kCount)>
        counters{};
    std::array<HistSlots, static_cast<std::size_t>(Hist::kCount)> hists{};
  };

  // The calling thread's stripe: dealt round-robin at its first write to
  // any plane, the same index in every plane.
  Stripe& ThreadStripe() noexcept {
    thread_local std::size_t stripe = kStripes;  // not dealt yet
    if (stripe == kStripes) [[unlikely]] stripe = DealStripe();
    return stripes_[stripe];
  }
  static std::size_t DealStripe() noexcept;

  template <typename SlotOf>
  std::uint64_t SumStripes(SlotOf slot_of) const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += slot_of(stripe).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::array<Stripe, kStripes> stripes_{};
  alignas(kCacheLineBytes) std::array<
      std::atomic<std::uint64_t>, static_cast<std::size_t>(Gauge::kCount)>
      gauges_{};
};

}  // namespace equihist::metrics

#endif  // EQUIHIST_COMMON_METRICS_H_
