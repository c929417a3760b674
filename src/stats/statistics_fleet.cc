#include "stats/statistics_fleet.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "stats/fleet_wire.h"

namespace equihist {

// -- StatisticsFleet ---------------------------------------------------------

StatisticsFleet::StatisticsFleet(const Options& options) {
  const std::uint64_t n = std::max<std::uint64_t>(options.shards, 1);
  shards_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<StatisticsShard>(options.shard));
  }
  scheduler_ = std::make_unique<BuildScheduler>(options.scheduler, &metrics_);
}

std::size_t StatisticsFleet::ShardIndex(const std::string& column) const {
  // Single-shard fleets skip the hash entirely, so they serve at a bare
  // shard's ns/query.
  if (shards_.size() == 1) return 0;
  return static_cast<std::size_t>(HashColumnName(column) % shards_.size());
}

Result<double> StatisticsFleet::EstimateRange(const std::string& column,
                                              const Table& table,
                                              const RangeQuery& query) {
  return shards_[ShardIndex(column)]->EstimateRange(column, table, query);
}

Status StatisticsFleet::EstimateBatch(
    const Table& table, std::span<const BatchEstimateRequest> requests,
    BatchEstimateResult* result) {
  if (result == nullptr) {
    return Status::InvalidArgument("EstimateBatch requires a result");
  }
  metrics_.Increment(metrics::Counter::kEstimateBatches);
  metrics_.Increment(metrics::Counter::kEstimateQueries, requests.size());
  metrics_.Observe(metrics::Hist::kEstimateBatchSize, requests.size());
  return StatisticsShard::EstimatePinned(
      table, requests, result,
      [this](const std::string& column) -> StatisticsShard& {
        return *shards_[ShardIndex(column)];
      });
}

Result<std::shared_ptr<const ColumnStatistics>> StatisticsFleet::EnsureFresh(
    const std::string& column, const Table& table) {
  return shards_[ShardIndex(column)]->EnsureFresh(column, table);
}

StatisticsShard::BuildAllResult StatisticsFleet::BuildAll(
    const std::vector<std::string>& columns, const Table& table) {
  std::vector<std::vector<std::string>> per_shard(shards_.size());
  for (const std::string& column : columns) {
    per_shard[ShardIndex(column)].push_back(column);
  }
  StatisticsShard::BuildAllResult aggregate;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    StatisticsShard::BuildAllResult shard_result =
        shards_[s]->BuildAll(per_shard[s], table);
    aggregate.attempted += shard_result.attempted;
    aggregate.succeeded += shard_result.succeeded;
    for (auto& failure : shard_result.failed) {
      aggregate.failed.push_back(std::move(failure));
    }
  }
  // Per-shard sweeps report in shard order; restore the input-order
  // contract of StatisticsShard::BuildAll.
  std::map<std::string, std::size_t> input_order;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    input_order.emplace(columns[i], i);
  }
  std::stable_sort(aggregate.failed.begin(), aggregate.failed.end(),
                   [&input_order](const auto& a, const auto& b) {
                     return input_order[a.first] < input_order[b.first];
                   });
  return aggregate;
}

void StatisticsFleet::RecordModifications(const std::string& column,
                                          std::uint64_t count) {
  shards_[ShardIndex(column)]->RecordModifications(column, count);
}

void StatisticsFleet::RecordInsert(const std::string& column, Value value) {
  shards_[ShardIndex(column)]->RecordInsert(column, value);
}

void StatisticsFleet::RecordDelete(const std::string& column, Value value) {
  shards_[ShardIndex(column)]->RecordDelete(column, value);
}

ColumnHealthReport StatisticsFleet::Health(const std::string& column) const {
  return shards_[ShardIndex(column)]->Health(column);
}

bool StatisticsFleet::Drop(const std::string& column) {
  return shards_[ShardIndex(column)]->Drop(column);
}

bool StatisticsFleet::Has(const std::string& column) const {
  return shards_[ShardIndex(column)]->Has(column);
}

std::size_t StatisticsFleet::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

void StatisticsFleet::ScheduleBuild(const std::string& table_name,
                                    const std::string& column,
                                    const Table& table) {
  StatisticsShard* shard = shards_[ShardIndex(column)].get();
  const ColumnHealthReport report = shard->Health(column);
  scheduler_->Enqueue(BuildScheduler::Request{
      table_name, column, report.health, report.modified_fraction,
      [shard, column, table_ptr = &table]() {
        return shard->EnsureFresh(column, *table_ptr).status();
      }});
}

Result<std::vector<std::uint8_t>> StatisticsFleet::ServeFrame(
    std::span<const std::uint8_t> bytes, const Table& table) {
  Result<std::vector<std::uint8_t>> response = [&]()
      -> Result<std::vector<std::uint8_t>> {
    EQUIHIST_ASSIGN_OR_RETURN(const fleetwire::FrameType type,
                              fleetwire::PeekType(bytes));
    switch (type) {
      case fleetwire::FrameType::kEstimateBatchRequest: {
        EQUIHIST_ASSIGN_OR_RETURN(
            const fleetwire::EstimateBatchRequestFrame request,
            fleetwire::DecodeEstimateBatchRequest(bytes));
        fleetwire::EstimateBatchResponseFrame reply;
        BatchEstimateResult result;
        EQUIHIST_RETURN_IF_ERROR(
            EstimateBatch(table, request.requests, &result));
        reply.estimates = std::move(result.estimates);
        return fleetwire::Encode(reply);
      }
      case fleetwire::FrameType::kBuildControlRequest: {
        EQUIHIST_ASSIGN_OR_RETURN(
            const fleetwire::BuildControlRequestFrame request,
            fleetwire::DecodeBuildControlRequest(bytes));
        Status outcome = Status::OK();
        switch (request.op) {
          case fleetwire::BuildOp::kEnsureFresh:
            outcome = EnsureFresh(request.column, table).status();
            break;
          case fleetwire::BuildOp::kDrop:
            if (!Drop(request.column)) {
              outcome = Status::NotFound("no statistics for column");
            }
            break;
          case fleetwire::BuildOp::kRecordModifications:
            RecordModifications(request.column, request.count);
            break;
        }
        // Build outcomes ride inside the response; only frame-level
        // failures surface as the outer Status.
        return fleetwire::Encode(fleetwire::BuildControlResponseFrame{
            outcome.code(), outcome.message()});
      }
      case fleetwire::FrameType::kMetricsRequest: {
        EQUIHIST_RETURN_IF_ERROR(fleetwire::DecodeMetricsRequest(bytes));
        return fleetwire::Encode(
            fleetwire::MetricsResponseFrame{MetricsJson()});
      }
      case fleetwire::FrameType::kEstimateBatchResponse:
      case fleetwire::FrameType::kBuildControlResponse:
      case fleetwire::FrameType::kMetricsResponse:
      case fleetwire::FrameType::kRejection:
        return Status::InvalidArgument(
            "response frames cannot be served");
    }
    return Status::InvalidArgument("unknown fleet frame type");
  }();
  metrics_.Increment(response.ok() ? metrics::Counter::kWireFramesServed
                                   : metrics::Counter::kWireFrameErrors);
  return response;
}

std::string StatisticsFleet::MetricsJson() const {
  std::string out = "{\"fleet\":";
  out += metrics_.ToJson();
  out += ",\"shards\":[";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s != 0) out += ',';
    out += "{\"size\":";
    out += std::to_string(shards_[s]->size());
    out += ",\"stale\":";
    out += std::to_string(shards_[s]->stale_count());
    out += ",\"metrics\":";
    out += shards_[s]->metrics().ToJson();
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace equihist
