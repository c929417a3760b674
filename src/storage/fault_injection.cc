#include "storage/fault_injection.h"

#include <utility>

#include "common/rng.h"

namespace equihist {

FaultInjector::FaultInjector(FaultSpec spec)
    : spec_(std::move(spec)),
      transient_set_(spec_.transient_pages.begin(),
                     spec_.transient_pages.end()),
      lost_set_(spec_.lost_pages.begin(), spec_.lost_pages.end()),
      corrupt_set_(spec_.corrupt_pages.begin(), spec_.corrupt_pages.end()) {}

bool FaultInjector::HashSelects(std::uint64_t page_id, std::uint32_t kind_tag,
                                double p) const {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const std::uint64_t h = HashDecision(spec_.seed, kind_tag, {page_id});
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < p;
}

FaultKind FaultInjector::Classify(std::uint64_t page_id) const {
  // Explicit triggers first, then probabilities; lost > corrupt > transient
  // keeps overlapping selections deterministic.
  if (lost_set_.count(page_id) != 0 ||
      HashSelects(page_id, 1, spec_.lost_probability)) {
    return FaultKind::kLost;
  }
  if (corrupt_set_.count(page_id) != 0 ||
      HashSelects(page_id, 2, spec_.corrupt_probability)) {
    return FaultKind::kCorrupt;
  }
  if (transient_set_.count(page_id) != 0 ||
      HashSelects(page_id, 3, spec_.transient_probability)) {
    return FaultKind::kTransient;
  }
  return FaultKind::kNone;
}

FaultKind FaultInjector::Decide(std::uint64_t page_id) {
  switch (Classify(page_id)) {
    case FaultKind::kNone:
      return FaultKind::kNone;
    case FaultKind::kLost:
      lost_injected_.fetch_add(1, std::memory_order_relaxed);
      return FaultKind::kLost;
    case FaultKind::kCorrupt:
      corrupt_injected_.fetch_add(1, std::memory_order_relaxed);
      return FaultKind::kCorrupt;
    case FaultKind::kTransient:
      break;
  }
  // Transient pages fail a bounded number of attempts, then heal. The
  // counter is per page, so retries of different pages never interact.
  {
    MutexLock lock(mu_);
    std::uint32_t& failed = transient_failures_[page_id];
    if (failed >= spec_.transient_failures_per_page) return FaultKind::kNone;
    ++failed;
  }
  transient_injected_.fetch_add(1, std::memory_order_relaxed);
  return FaultKind::kTransient;
}

bool FaultInjector::InjectsLatency(std::uint64_t page_id) const {
  if (spec_.latency_micros == 0) return false;
  return HashSelects(page_id, 4, spec_.latency_probability);
}

const Page* FaultInjector::CorruptedCopy(std::uint64_t page_id,
                                         const Page& page) {
  MutexLock lock(mu_);
  auto it = corrupted_.find(page_id);
  if (it == corrupted_.end()) {
    auto copy = std::make_unique<Page>(page);
    if (copy->size() > 0) {
      const std::uint64_t h = HashDecision(spec_.seed, 5, {page_id});
      const auto slot = static_cast<std::uint32_t>(h % copy->size());
      // A nonzero mask guarantees the payload really changes, so the
      // stored checksum no longer matches.
      const Value mask = static_cast<Value>(h | 1);
      copy->CorruptValue(slot, mask);
    }
    it = corrupted_.emplace(page_id, std::move(copy)).first;
  }
  return it->second.get();
}

}  // namespace equihist
