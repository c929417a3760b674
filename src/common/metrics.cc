#include "common/metrics.h"

#include <cstddef>

namespace equihist::metrics {

const char* Name(Counter counter) {
  switch (counter) {
    case Counter::kEstimateQueries:
      return "estimate_queries";
    case Counter::kEstimateBatches:
      return "estimate_batches";
    case Counter::kServingCacheRefreshes:
      return "serving_cache_refreshes";
    case Counter::kBuildsCompleted:
      return "builds_completed";
    case Counter::kBuildsFailed:
      return "builds_failed";
    case Counter::kIncrementalRefreshes:
      return "incremental_refreshes";
    case Counter::kFallbackPublishes:
      return "fallback_publishes";
    case Counter::kDmlRecords:
      return "dml_records";
    case Counter::kCoalescedRequests:
      return "coalesced_requests";
    case Counter::kWireFramesServed:
      return "wire_frames_served";
    case Counter::kWireFrameErrors:
      return "wire_frame_errors";
    case Counter::kSchedulerEnqueued:
      return "scheduler_enqueued";
    case Counter::kSchedulerCoalesced:
      return "scheduler_coalesced";
    case Counter::kSchedulerCompleted:
      return "scheduler_completed";
    case Counter::kSchedulerFailed:
      return "scheduler_failed";
    case Counter::kTransportRequests:
      return "transport_requests";
    case Counter::kTransportRetries:
      return "transport_retries";
    case Counter::kTransportHedges:
      return "transport_hedges";
    case Counter::kTransportHedgeWins:
      return "transport_hedge_wins";
    case Counter::kTransportDeadlineExceeded:
      return "transport_deadline_exceeded";
    case Counter::kTransportBackpressure:
      return "transport_backpressure";
    case Counter::kTransportBreakerOpens:
      return "transport_breaker_opens";
    case Counter::kTransportBreakerFastFails:
      return "transport_breaker_fast_fails";
    case Counter::kTransportErrors:
      return "transport_errors";
    case Counter::kServerFramesServed:
      return "server_frames_served";
    case Counter::kServerRejects:
      return "server_rejects";
    case Counter::kServerShedDrops:
      return "server_shed_drops";
    case Counter::kServerExpiredDrops:
      return "server_expired_drops";
    case Counter::kServerConnections:
      return "server_connections";
    case Counter::kCount:
      break;
  }
  return "unknown_counter";
}

const char* Name(Gauge gauge) {
  switch (gauge) {
    case Gauge::kQueueDepth:
      return "queue_depth";
    case Gauge::kInflightBuilds:
      return "inflight_builds";
    case Gauge::kServerQueueDepth:
      return "server_queue_depth";
    case Gauge::kServerActiveConnections:
      return "server_active_connections";
    case Gauge::kCount:
      break;
  }
  return "unknown_gauge";
}

const char* Name(Hist hist) {
  switch (hist) {
    case Hist::kBuildLatencyMicros:
      return "build_latency_micros";
    case Hist::kEstimateBatchSize:
      return "estimate_batch_size";
    case Hist::kCoalescedBatchSize:
      return "coalesced_batch_size";
    case Hist::kTransportRoundTripMicros:
      return "transport_round_trip_micros";
    case Hist::kServerQueueWaitMicros:
      return "server_queue_wait_micros";
    case Hist::kCount:
      break;
  }
  return "unknown_hist";
}

std::size_t MetricsPlane::DealStripe() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

std::string MetricsPlane::ToJson() const {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount);
       ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += Name(static_cast<Counter>(i));
    out += "\":";
    out += std::to_string(counter(static_cast<Counter>(i)));
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Gauge::kCount); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += Name(static_cast<Gauge>(i));
    out += "\":";
    out += std::to_string(gauge(static_cast<Gauge>(i)));
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Hist::kCount); ++i) {
    const Hist h = static_cast<Hist>(i);
    if (i != 0) out += ',';
    out += '"';
    out += Name(h);
    out += "\":{\"count\":";
    out += std::to_string(hist_count(h));
    out += ",\"sum\":";
    out += std::to_string(hist_sum(h));
    out += ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      const std::uint64_t n = hist_bucket(h, b);
      if (n == 0) continue;
      if (!first) out += ',';
      first = false;
      out += "{\"le\":";
      if (b + 1 == kHistBuckets) {
        out += "\"inf\"";
      } else {
        out += std::to_string(BucketUpperBound(b));
      }
      out += ",\"count\":";
      out += std::to_string(n);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace equihist::metrics
