#include "stats/histogram_model.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"

namespace equihist {

HistogramBackendRegistry& HistogramBackendRegistry::Global() {
  static HistogramBackendRegistry* instance = []() {
    auto* registry = new HistogramBackendRegistry();
    internal::RegisterBuiltinHistogramBackends(*registry);
    return registry;
  }();
  return *instance;
}

Status HistogramBackendRegistry::Register(HistogramBackendId id,
                                          Backend backend) {
  if (!backend.deserialize_payload) {
    return Status::InvalidArgument("a backend needs deserialize_payload");
  }
  if (backend.name.empty()) {
    return Status::InvalidArgument("a backend needs a name");
  }
  MutexLock lock(mu_);
  for (const auto& [existing_id, existing] : backends_) {
    if (existing.name == backend.name && existing_id != id) {
      return Status::FailedPrecondition("backend name '" + backend.name +
                                        "' is already registered");
    }
  }
  const auto [it, inserted] = backends_.emplace(id, std::move(backend));
  if (!inserted) {
    return Status::FailedPrecondition(
        "backend id " + std::to_string(static_cast<unsigned>(id)) +
        " is already registered");
  }
  return Status::OK();
}

Result<HistogramBackendRegistry::Backend> HistogramBackendRegistry::Find(
    HistogramBackendId id) const {
  MutexLock lock(mu_);
  const auto it = backends_.find(id);
  if (it == backends_.end()) {
    return Status::NotFound("no histogram backend with id " +
                            std::to_string(static_cast<unsigned>(id)));
  }
  return it->second;
}

bool HistogramBackendRegistry::Has(HistogramBackendId id) const {
  MutexLock lock(mu_);
  return backends_.find(id) != backends_.end();
}

std::vector<HistogramBackendId> HistogramBackendRegistry::Ids() const {
  MutexLock lock(mu_);
  std::vector<HistogramBackendId> ids;
  ids.reserve(backends_.size());
  for (const auto& [id, backend] : backends_) ids.push_back(id);
  return ids;
}

Result<RangeWorkloadReport> EvaluateRangeWorkload(
    const HistogramModel& model, std::span<const RangeQuery> queries,
    const ValueSet& truth) {
  if (truth.empty()) {
    return Status::InvalidArgument("truth value set must be non-empty");
  }
  RangeWorkloadReport report;
  report.query_count = queries.size();
  KahanSum abs_sum;
  KahanSum rel_sum;
  for (const RangeQuery& query : queries) {
    const double estimate = model.EstimateRangeCount(query);
    const auto actual =
        static_cast<double>(truth.CountInRange(query.lo, query.hi));
    const double abs_error = std::abs(estimate - actual);
    abs_sum.Add(abs_error);
    report.max_absolute_error = std::max(report.max_absolute_error, abs_error);
    if (actual > 0.0) {
      const double rel_error = abs_error / actual;
      rel_sum.Add(rel_error);
      report.max_relative_error =
          std::max(report.max_relative_error, rel_error);
      ++report.relative_query_count;
    }
  }
  if (report.query_count > 0) {
    report.mean_absolute_error =
        abs_sum.Value() / static_cast<double>(report.query_count);
  }
  if (report.relative_query_count > 0) {
    report.mean_relative_error =
        rel_sum.Value() / static_cast<double>(report.relative_query_count);
  }
  return report;
}

}  // namespace equihist
