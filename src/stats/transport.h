#ifndef EQUIHIST_STATS_TRANSPORT_H_
#define EQUIHIST_STATS_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "stats/link_fault_injection.h"
#include "stats/statistics_fleet.h"
#include "storage/table.h"

namespace equihist::transport {

// The fleet transport layer (DESIGN.md §17): how fleetwire frames travel
// between a client and a StatisticsFleet. Two implementations of one
// Transport interface:
//
//   InProcessTransport — ServeFrame behind the interface,
//     bitwise-identical to calling the fleet. It simulates no link.
//   SocketTransport    — a real localhost link (Unix domain socket or
//     TCP), speaking the length-prefixed envelope below, served by a
//     SocketTransportServer with bounded queues and load shedding.
//
// -- Envelope ---------------------------------------------------------------
//
// A fleetwire frame is a self-describing byte string but carries no
// length, no integrity check, and no correlation id — all three are
// transport concerns. Each message on a link is therefore wrapped:
//
//   varint total_len            — length of everything that follows
//   varint request_id           — correlates responses to requests; lets
//                                 a client discard duplicated or stale
//                                 responses deterministically
//   varint deadline_budget_us   — request direction only: how much of the
//                                 client's budget remains, propagated
//                                 into the server's admission check
//   varint checksum             — FNV-1a 64 of the frame bytes; separates
//                                 wire damage (retryable kUnavailable)
//                                 from genuinely malformed frames
//   frame bytes                 — the fleetwire frame, verbatim
//
// Every decode runs through the bounds-checked wire::Reader, and
// total_len is capped (kMaxFrameBytes) so a hostile or corrupted length
// prefix can neither over-allocate nor stall a reader.
//
// -- Deadlines --------------------------------------------------------------
//
// Every RoundTrip carries a budget in microseconds. The budget bounds
// EVERY wait in the implementation (connect, poll, queue, serve): no
// fault class — drop, partition, wedged peer — can block a caller past
// its deadline. An exhausted budget surfaces as kDeadlineExceeded. A
// budget too large to add to the clock saturates (DeadlineAfter in
// common/timer.h): it means "no deadline", never one in the past.

// The envelope size cap, both directions: a length prefix above it is
// rejected before any buffer grows to hold the payload.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

// FNV-1a 64 over a byte span — the envelope checksum.
std::uint64_t ChecksumBytes(std::span<const std::uint8_t> bytes);

// -- Envelope codec ---------------------------------------------------------
//
// The framing functions the client and server both speak, public so the
// transport tests and the fuzz/ harnesses (fuzz_transport_envelope) can
// drive the exact production decode path with hostile bytes.

// payload := request_id [budget] checksum frame; message := len payload.
// Written into one buffer sized up front: one allocation, one frame copy.
std::vector<std::uint8_t> EncodeEnvelope(std::uint64_t request_id,
                                         std::uint64_t budget_micros,
                                         bool include_budget,
                                         std::span<const std::uint8_t> frame);

struct DecodedEnvelope {
  std::uint64_t request_id = 0;
  std::uint64_t budget_micros = 0;  // request direction only
  bool checksum_ok = false;
  std::vector<std::uint8_t> frame;
};

// Parses an envelope payload (everything after the length prefix). A
// checksum mismatch is NOT a parse error: the framing is intact and the
// stream stays usable, so the caller can answer with a typed rejection
// instead of tearing the connection down.
Result<DecodedEnvelope> DecodeEnvelopePayload(
    std::span<const std::uint8_t> payload, bool expect_budget);

// Reads whole envelope payloads off one stream socket — the receive leg
// of the client and of every server connection. Each recv takes as many
// bytes as the socket holds; the length varint is parsed from the buffer,
// and bytes past the current envelope (a duplicated or stale reply, a
// second request) stay buffered for the next call. The length is checked
// against kMaxFrameBytes before the buffer grows to hold the payload.
// Not thread-safe: one reader per connection, used by one thread at a
// time.
class EnvelopeReader {
 public:
  // The next envelope payload (everything after the length prefix),
  // valid until the next call. Waits are poll()-bounded by
  // `deadline_micros` (absolute steady-clock micros, 0 = none) and `stop`
  // (optional, checked between poll slices). A timeout keeps any partial
  // envelope buffered, so a later call resumes it; EOF, socket errors,
  // an oversized varint and an out-of-bounds length are kUnavailable.
  Result<std::span<const std::uint8_t>> Next(int fd,
                                             std::uint64_t deadline_micros,
                                             const std::atomic<bool>* stop);

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t begin_ = 0;  // first unconsumed byte
  std::size_t end_ = 0;    // one past the last received byte
};

// Where a SocketTransport connects / a SocketTransportServer listens.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         // kUnix: filesystem path of the socket
  std::uint16_t port = 0;   // kTcp: localhost port; 0 = ephemeral (the
                            // server resolves and reports the real one)
};

// One logical link to a fleet server. Implementations are NOT required to
// be thread-safe; the client layer (stats/transport_client.h) serializes
// use per connection.
class Transport {
 public:
  virtual ~Transport() = default;

  // Sends `frame` and returns the peer's response frame. `budget_micros`
  // bounds the whole exchange; 0 means the budget is already exhausted
  // and the call fails immediately with kDeadlineExceeded. A returned
  // kRejection frame is NOT an error at this layer — callers decode it.
  virtual Result<std::vector<std::uint8_t>> RoundTrip(
      std::span<const std::uint8_t> frame, std::uint64_t budget_micros) = 0;

  // True once the link is unusable (peer hung up, framing desynced,
  // timed out mid-message). Broken transports are discarded, never
  // reused: after a timeout the link may still deliver the stale
  // response, which a fresh exchange must not misread.
  virtual bool Broken() const { return false; }
};

// -- In-process transport ---------------------------------------------------

// ServeFrame behind the Transport interface: the returned bytes are the
// exact ServeFrame output (bitwise — pinned by the transport tests). It
// injects no link faults; link chaos runs over the socket transport, the
// link that has a wire to fail.
class InProcessTransport final : public Transport {
 public:
  // `fleet` and `table` must outlive the transport.
  InProcessTransport(StatisticsFleet* fleet, const Table* table)
      : fleet_(fleet), table_(table) {}

  Result<std::vector<std::uint8_t>> RoundTrip(
      std::span<const std::uint8_t> frame,
      std::uint64_t budget_micros) override;

 private:
  StatisticsFleet* fleet_;
  const Table* table_;
};

// -- Socket transport (client side) -----------------------------------------

// A connected localhost socket speaking the envelope. One outstanding
// request at a time (the client layer pools connections for
// parallelism). Every socket operation is non-blocking and poll()-bounded
// by the caller's budget.
class SocketTransport final : public Transport {
 public:
  // Connects within `budget_micros`. `injector` (optional, must outlive
  // the transport) mangles this connection's frames under
  // `connection_id`.
  static Result<std::unique_ptr<SocketTransport>> Connect(
      const Endpoint& endpoint, std::uint64_t budget_micros,
      LinkFaultInjector* injector = nullptr, std::uint64_t connection_id = 0);

  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  Result<std::vector<std::uint8_t>> RoundTrip(
      std::span<const std::uint8_t> frame,
      std::uint64_t budget_micros) override;
  bool Broken() const override {
    return broken_.load(std::memory_order_relaxed);
  }

 private:
  SocketTransport(int fd, LinkFaultInjector* injector,
                  std::uint64_t connection_id);

  Result<std::vector<std::uint8_t>> RoundTripLocked(
      std::span<const std::uint8_t> frame, std::uint64_t budget_micros)
      REQUIRES(mu_);

  // Serializes RoundTrip; the wire protocol is one-at-a-time.
  Mutex mu_{lockrank::kSocketTransport};
  int fd_;
  LinkFaultInjector* injector_;
  std::uint64_t connection_id_;
  std::uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
  std::uint64_t send_index_ GUARDED_BY(mu_) = 0;     // frames sent
  std::uint64_t receive_index_ GUARDED_BY(mu_) = 0;  // frames received
  EnvelopeReader reader_ GUARDED_BY(mu_);
  std::atomic<bool> broken_{false};
};

// -- Socket transport server ------------------------------------------------

// Serves a StatisticsFleet over an Endpoint with explicit overload
// behavior:
//
//   - accept thread + one reader thread per connection, capped by
//     kMaxConnections (excess connections are accepted and immediately
//     closed — cheaper than a SYN backlog of unknowable depth);
//   - the reader serves the frame it decoded on its own thread, as long
//     as fewer than `workers` frames are being served. Otherwise it
//     queues the frame and goes back to reading; a serving reader drains
//     the queue after its own reply and gives its slot back only once it
//     sees the queue empty. The queue is bounded: on overflow it sheds
//     the entry with the OLDEST remaining deadline (the request most
//     likely to be dead on arrival anyway) and answers it with a typed
//     kResourceExhausted rejection — explicit backpressure clients must
//     not retry;
//   - admission check before serving: a request whose propagated deadline
//     already expired is answered with a kDeadlineExceeded rejection
//     instead of burning serve time on an answer nobody is waiting for.
//
// An attached LinkFaultInjector adds server-side chaos: kServe-direction
// delay stalls the handler, kServe drop wedges it silently (the client's
// deadline machinery must save it — the satellite deadline-propagation
// test drives exactly this), and kReceive/kSend faults mangle the wire
// legs.
class SocketTransportServer {
 public:
  // Concurrent connections before new ones are turned away.
  static constexpr std::size_t kMaxConnections = 32;

  struct Options {
    Endpoint endpoint{};
    // Frames served at once (each on the reader thread that read it).
    std::size_t workers = 2;
    // Frames queued behind busy serving slots before shedding starts.
    std::size_t queue_capacity = 64;
    // Optional chaos hooks; must outlive the server.
    LinkFaultInjector* injector = nullptr;
    // Optional transport metrics plane; must outlive the server.
    metrics::MetricsPlane* metrics = nullptr;
  };

  // `fleet` and `table` must outlive the server.
  SocketTransportServer(StatisticsFleet* fleet, const Table* table,
                        Options options);
  ~SocketTransportServer();
  SocketTransportServer(const SocketTransportServer&) = delete;
  SocketTransportServer& operator=(const SocketTransportServer&) = delete;

  // Binds, listens, and spawns the accept thread. On success
  // endpoint() reports the bound address (with any ephemeral TCP port
  // resolved).
  Status Start();
  // Stops accepting, closes every connection, drains the threads. Safe to
  // call twice; the destructor calls it.
  void Stop();

  const Endpoint& endpoint() const { return options_.endpoint; }

 private:
  struct Connection;
  struct WorkItem {
    std::shared_ptr<Connection> connection;
    std::vector<std::uint8_t> frame;
    std::uint64_t request_id = 0;
    // Absolute steady-clock micros when the client gives up; admission
    // drops anything already past this.
    std::uint64_t deadline_micros = 0;
    std::uint64_t enqueued_micros = 0;
    // Per-connection arrival index, the frame_index key of the
    // serve-direction chaos decision (request ids restart per connection
    // and cannot key it).
    std::uint64_t serve_index = 0;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> connection);
  // Serves `item` on the calling thread if a serving slot is free, then
  // drains the queue before releasing the slot; otherwise queues it with
  // oldest-deadline-first shedding (shed items get a typed rejection).
  void Admit(WorkItem item) EXCLUDES(mu_);
  // Admission deadline check, kServe fault hooks, ServeFrame and reply.
  void Serve(WorkItem item) EXCLUDES(mu_);
  void Reply(const std::shared_ptr<Connection>& connection,
             std::uint64_t request_id, std::span<const std::uint8_t> frame);
  void RejectWith(const std::shared_ptr<Connection>& connection,
                  std::uint64_t request_id, const Status& error,
                  metrics::Counter counter);

  StatisticsFleet* fleet_;
  const Table* table_;
  Options options_;

  Mutex mu_{lockrank::kTransportServer};
  std::deque<WorkItem> queue_ GUARDED_BY(mu_);
  std::size_t serving_ GUARDED_BY(mu_) = 0;  // slots taken, <= workers
  std::vector<std::shared_ptr<Connection>> connections_ GUARDED_BY(mu_);
  std::uint64_t next_connection_id_ GUARDED_BY(mu_) = 1;
  // Set once by Stop(); readers and serve delays poll it lock-free.
  std::atomic<bool> stopping_{false};

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: unblocks the accept poll
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
};

}  // namespace equihist::transport

#endif  // EQUIHIST_STATS_TRANSPORT_H_
