#include "stats/link_fault_injection.h"

#include <utility>

#include "common/rng.h"

namespace equihist::transport {

LinkFaultInjector::LinkFaultInjector(LinkFaultSpec spec)
    : spec_(std::move(spec)),
      partitioned_set_(spec_.partitioned_connections.begin(),
                       spec_.partitioned_connections.end()) {}

bool LinkFaultInjector::HashSelects(std::uint64_t connection,
                                    std::uint64_t frame_index,
                                    LinkDirection direction,
                                    std::uint32_t kind_tag, double p) const {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const std::uint64_t h =
      HashDecision(spec_.seed, kind_tag,
                   {connection, frame_index,
                    static_cast<std::uint64_t>(direction)});
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < p;
}

bool LinkFaultInjector::TriggerMatches(std::uint64_t connection,
                                       std::uint64_t frame_index,
                                       LinkDirection direction,
                                       LinkFaultKind kind) const {
  for (const LinkFaultTrigger& t : spec_.triggers) {
    if (t.kind != kind || t.direction != direction ||
        t.frame_index != frame_index) {
      continue;
    }
    if (t.connection == kAnyConnection || t.connection == connection) {
      return true;
    }
  }
  return false;
}

LinkFaultPlan LinkFaultInjector::Decide(std::uint64_t connection,
                                        std::uint64_t frame_index,
                                        LinkDirection direction) {
  LinkFaultPlan plan;
  // Delay is orthogonal: it stacks under any other fault so chaos sweeps
  // exercise slow-and-broken links, not just slow xor broken ones.
  if (TriggerMatches(connection, frame_index, direction,
                     LinkFaultKind::kDelay) ||
      HashSelects(connection, frame_index, direction, 1,
                  spec_.delay_probability)) {
    plan.delay_micros = spec_.delay_micros;
    delays_.fetch_add(1, std::memory_order_relaxed);
  }
  // Explicit triggers first, then probabilities; drop > truncate >
  // corrupt > duplicate keeps overlapping selections deterministic.
  if (TriggerMatches(connection, frame_index, direction,
                     LinkFaultKind::kDrop) ||
      HashSelects(connection, frame_index, direction, 2,
                  spec_.drop_probability)) {
    plan.kind = LinkFaultKind::kDrop;
    drops_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  if (TriggerMatches(connection, frame_index, direction,
                     LinkFaultKind::kTruncate) ||
      HashSelects(connection, frame_index, direction, 3,
                  spec_.truncate_probability)) {
    plan.kind = LinkFaultKind::kTruncate;
    truncates_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  if (TriggerMatches(connection, frame_index, direction,
                     LinkFaultKind::kCorrupt) ||
      HashSelects(connection, frame_index, direction, 4,
                  spec_.corrupt_probability)) {
    plan.kind = LinkFaultKind::kCorrupt;
    corrupts_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  if (TriggerMatches(connection, frame_index, direction,
                     LinkFaultKind::kDuplicate) ||
      HashSelects(connection, frame_index, direction, 5,
                  spec_.duplicate_probability)) {
    plan.kind = LinkFaultKind::kDuplicate;
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  return plan;
}

bool LinkFaultInjector::Partitioned(std::uint64_t connection) const {
  if (partitioned_set_.count(connection) != 0) return true;
  // Partition is a property of the connection, not of any frame: hash on
  // (seed, connection) only, via frame_index 0 and a dedicated kind tag.
  return HashSelects(connection, 0, LinkDirection::kSend, 6,
                     spec_.partition_probability);
}

void LinkFaultInjector::ApplyTruncate(std::uint64_t connection,
                                      std::uint64_t frame_index,
                                      std::vector<std::uint8_t>& bytes) const {
  if (bytes.empty()) return;
  const std::uint64_t h =
      HashDecision(spec_.seed, 7,
                   {connection, frame_index,
                    static_cast<std::uint64_t>(LinkDirection::kSend)});
  // Strict prefix: [0, size) bytes survive, so at least one byte is lost.
  bytes.resize(h % bytes.size());
}

void LinkFaultInjector::ApplyCorrupt(std::uint64_t connection,
                                     std::uint64_t frame_index,
                                     std::vector<std::uint8_t>& bytes) const {
  if (bytes.empty()) return;
  const std::uint64_t h =
      HashDecision(spec_.seed, 8,
                   {connection, frame_index,
                    static_cast<std::uint64_t>(LinkDirection::kSend)});
  const std::size_t slot = static_cast<std::size_t>(h % bytes.size());
  // A nonzero mask guarantees the byte really changes.
  bytes[slot] ^= static_cast<std::uint8_t>((h >> 32) | 1);
}

std::uint64_t LinkFaultInjector::total_injected() const {
  return drops_injected() + delays_injected() + truncates_injected() +
         corrupts_injected() + duplicates_injected() + partitions_hit();
}

}  // namespace equihist::transport
