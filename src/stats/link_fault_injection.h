#ifndef EQUIHIST_STATS_LINK_FAULT_INJECTION_H_
#define EQUIHIST_STATS_LINK_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace equihist::transport {

// Deterministic link-level fault injection for the fleet transport
// (DESIGN.md §17) — the network-side sibling of the storage layer's
// FaultInjector (storage/fault_injection.h). A LinkFaultInjector attached
// to a SocketTransport and its server decides, per frame crossing the
// link, what the simulated network does:
//
//   kDrop      — the frame silently vanishes: the peer never sees it and
//                the waiting side times out against its deadline.
//   kDelay     — the frame is delivered after a fixed injected delay,
//                capped by the caller's remaining budget.
//   kTruncate  — a strict prefix of the frame's bytes is delivered. The
//                length-prefixed envelope makes the receiver either stall
//                (short read -> deadline) or reject the malformed frame.
//   kCorrupt   — one byte of the frame is flipped in flight. The envelope
//                checksum catches it; the receiver reports kUnavailable
//                (transient wire damage, retryable) rather than
//                misinterpreting the payload.
//   kDuplicate — the frame is delivered twice. Request-id correlation in
//                the envelope makes duplicates harmless.
//   partition  — the connection as a whole is severed: every operation on
//                it fails immediately with kUnavailable.
//
// Decisions are keyed by (seed, connection, frame_index, direction) —
// never by wall clock or thread interleaving — so a given spec replays the
// identical fault sequence on every run at any thread count. Explicit
// triggers name exact (connection, frame, direction) points for non-flaky
// unit tests; per-kind probabilities layer on top for randomized chaos
// sweeps whose seed is printed for replay.
//
// The injector is safe for concurrent use from every connection thread.

enum class LinkDirection : std::uint32_t {
  kSend = 0,    // client -> server leg
  kReceive,     // server -> client leg
  kServe,       // server-side handling (delay = slow handler, drop = wedged
                // handler that never replies)
};

enum class LinkFaultKind {
  kNone = 0,
  kDrop,
  kDelay,
  kTruncate,
  kCorrupt,
  kDuplicate,
};

// Wildcard for LinkFaultTrigger::connection: matches every connection.
inline constexpr std::uint64_t kAnyConnection = ~std::uint64_t{0};

// An exact injection point. `frame_index` counts frames per (connection,
// direction), starting at 0.
struct LinkFaultTrigger {
  std::uint64_t connection = kAnyConnection;
  std::uint64_t frame_index = 0;
  LinkDirection direction = LinkDirection::kSend;
  LinkFaultKind kind = LinkFaultKind::kNone;
};

struct LinkFaultSpec {
  // Per-kind probabilities in [0, 1], evaluated per (connection,
  // frame_index, direction). A frame can satisfy several; precedence is
  // drop > truncate > corrupt > duplicate, so probabilistic specs stay
  // deterministic. Delay is orthogonal and can ride along with any of
  // them (it applies before the other fault).
  double drop_probability = 0.0;
  double delay_probability = 0.0;
  double truncate_probability = 0.0;
  double corrupt_probability = 0.0;
  double duplicate_probability = 0.0;

  // Probability that a connection id is fully partitioned (evaluated per
  // connection, not per frame).
  double partition_probability = 0.0;

  // Explicit triggers (exact tests). Order is irrelevant.
  std::vector<LinkFaultTrigger> triggers{};

  // Explicitly partitioned connection ids.
  std::vector<std::uint64_t> partitioned_connections{};

  // Injected delay for delay-selected frames.
  std::uint64_t delay_micros = 0;

  // Seed for the probabilistic decisions and the corruption masks.
  std::uint64_t seed = 0;
};

// What one frame crossing the link experiences.
struct LinkFaultPlan {
  LinkFaultKind kind = LinkFaultKind::kNone;
  std::uint64_t delay_micros = 0;  // 0 = no injected delay
};

class LinkFaultInjector {
 public:
  explicit LinkFaultInjector(LinkFaultSpec spec);

  const LinkFaultSpec& spec() const { return spec_; }

  // The fault the `frame_index`-th frame of `connection` in `direction`
  // experiences. Pure function of (spec, arguments) aside from the
  // injection counters.
  LinkFaultPlan Decide(std::uint64_t connection, std::uint64_t frame_index,
                       LinkDirection direction);

  // True if `connection` is severed entirely.
  bool Partitioned(std::uint64_t connection) const;

  // Deterministic mutators for the byte-level faults, so a given decision
  // mangles the frame identically on every run. Truncate keeps a strict
  // prefix (possibly empty); corrupt XORs one byte with a nonzero
  // seed-derived mask. No-ops on empty input.
  void ApplyTruncate(std::uint64_t connection, std::uint64_t frame_index,
                     std::vector<std::uint8_t>& bytes) const;
  void ApplyCorrupt(std::uint64_t connection, std::uint64_t frame_index,
                    std::vector<std::uint8_t>& bytes) const;

  // -- Injection counters (what actually fired) ---------------------------
  std::uint64_t drops_injected() const {
    return drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t delays_injected() const {
    return delays_.load(std::memory_order_relaxed);
  }
  std::uint64_t truncates_injected() const {
    return truncates_.load(std::memory_order_relaxed);
  }
  std::uint64_t corrupts_injected() const {
    return corrupts_.load(std::memory_order_relaxed);
  }
  std::uint64_t duplicates_injected() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::uint64_t partitions_hit() const {
    return partitions_.load(std::memory_order_relaxed);
  }
  // Sum of every fault kind that fired (partition hits included).
  std::uint64_t total_injected() const;

  // Called by transports when a partitioned connection is actually used.
  void RecordPartitionHit() {
    partitions_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  bool HashSelects(std::uint64_t connection, std::uint64_t frame_index,
                   LinkDirection direction, std::uint32_t kind_tag,
                   double p) const;
  bool TriggerMatches(std::uint64_t connection, std::uint64_t frame_index,
                      LinkDirection direction, LinkFaultKind kind) const;

  LinkFaultSpec spec_;
  std::unordered_set<std::uint64_t> partitioned_set_;

  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> truncates_{0};
  std::atomic<std::uint64_t> corrupts_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> partitions_{0};
};

}  // namespace equihist::transport

#endif  // EQUIHIST_STATS_LINK_FAULT_INJECTION_H_
