#include "stats/transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "stats/fleet_wire.h"
#include "stats/wire_format.h"

namespace equihist::transport {
namespace {

// Sleeps in short slices so an injected delay can neither overshoot the
// caller's deadline nor pin a shutting-down server thread.
void SleepBounded(std::uint64_t micros, std::uint64_t deadline_micros,
                  const std::atomic<bool>* stop) {
  const std::uint64_t until =
      std::min(DeadlineAfter(SteadyMicros(), micros),
               deadline_micros == 0 ? ~std::uint64_t{0} : deadline_micros);
  while (SteadyMicros() < until) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    const std::uint64_t left = RemainingMicros(until);
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::min<std::uint64_t>(left, 10'000)));
  }
}

}  // namespace

// -- Envelope ---------------------------------------------------------------

// payload := request_id [budget] checksum frame; message := len payload.
std::vector<std::uint8_t> EncodeEnvelope(std::uint64_t request_id,
                                         std::uint64_t budget_micros,
                                         bool include_budget,
                                         std::span<const std::uint8_t> frame) {
  const std::uint64_t checksum = ChecksumBytes(frame);
  const std::size_t payload =
      wire::VarintSize(request_id) +
      (include_budget ? wire::VarintSize(budget_micros) : 0) +
      wire::VarintSize(checksum) + frame.size();
  std::vector<std::uint8_t> out;
  out.reserve(wire::VarintSize(payload) + payload);
  wire::PutVarint(payload, &out);
  wire::PutVarint(request_id, &out);
  if (include_budget) wire::PutVarint(budget_micros, &out);
  wire::PutVarint(checksum, &out);
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

// Parses an envelope payload (everything after the length prefix). A
// checksum mismatch is NOT a parse error: the framing is intact and the
// stream stays usable, so the caller can answer with a typed rejection
// instead of tearing the connection down.
Result<DecodedEnvelope> DecodeEnvelopePayload(
    std::span<const std::uint8_t> payload, bool expect_budget) {
  wire::Reader reader(payload);
  DecodedEnvelope envelope;
  EQUIHIST_ASSIGN_OR_RETURN(envelope.request_id, reader.Varint());
  if (expect_budget) {
    EQUIHIST_ASSIGN_OR_RETURN(envelope.budget_micros, reader.Varint());
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t checksum, reader.Varint());
  envelope.frame.assign(payload.begin() + static_cast<std::ptrdiff_t>(
                                              reader.position()),
                        payload.end());
  envelope.checksum_ok = ChecksumBytes(envelope.frame) == checksum;
  return envelope;
}

namespace {

// -- Bounded socket I/O -----------------------------------------------------
//
// Every operation is non-blocking + poll()-bounded: `deadline_micros` is
// an absolute steady-clock bound (0 = none), `stop` an optional early-out
// flag polled between slices. No call below can block unboundedly.

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Unavailable("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

// Waits for `events` on `fd`. Polls in <= 50ms slices so `stop` stays
// responsive even with a far deadline.
Status PollFd(int fd, short events, std::uint64_t deadline_micros,
              const std::atomic<bool>* stop) {
  while (true) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return Status::Unavailable("transport stopping");
    }
    std::uint64_t slice_ms = 50;
    if (deadline_micros != 0) {
      const std::uint64_t remaining = RemainingMicros(deadline_micros);
      if (remaining == 0) {
        return Status::DeadlineExceeded("transport deadline expired");
      }
      slice_ms = std::min<std::uint64_t>(slice_ms, remaining / 1000 + 1);
    }
    pollfd pfd{fd, events, 0};
    const int rc = poll(&pfd, 1, static_cast<int>(slice_ms));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("poll failed");
    }
    if (rc > 0) {
      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
        return Status::Unavailable("socket error");
      }
      return Status::OK();
    }
  }
}

Status SendAll(int fd, std::span<const std::uint8_t> bytes,
               std::uint64_t deadline_micros, const std::atomic<bool>* stop) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t rc = send(fd, bytes.data() + sent, bytes.size() - sent,
                            MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::Unavailable("send failed");
    }
    EQUIHIST_RETURN_IF_ERROR(PollFd(fd, POLLOUT, deadline_micros, stop));
  }
  return Status::OK();
}

// Smallest receive buffer: one recv takes a whole small envelope and
// whatever follows it.
constexpr std::size_t kMinRecvBuffer = 4096;

}  // namespace

Result<std::span<const std::uint8_t>> EnvelopeReader::Next(
    int fd, std::uint64_t deadline_micros, const std::atomic<bool>* stop) {
  while (true) {
    // Parse the length varint (at most 10 bytes) from the buffered bytes.
    const std::size_t available = end_ - begin_;
    std::uint64_t length = 0;
    std::size_t prefix = 0;  // varint bytes; 0 = incomplete
    for (std::size_t i = 0; i < std::min<std::size_t>(available, 10); ++i) {
      const std::uint8_t byte = buffer_[begin_ + i];
      length |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        prefix = i + 1;
        break;
      }
    }
    std::size_t needed = available + 1;
    if (prefix == 0 && available >= 10) {
      return Status::Unavailable("oversized varint on transport stream");
    }
    if (prefix != 0) {
      if (length == 0 || length > kMaxFrameBytes) {
        return Status::Unavailable("transport envelope length out of bounds");
      }
      needed = prefix + static_cast<std::size_t>(length);
      if (available >= needed) {
        const std::span<const std::uint8_t> payload(
            buffer_.data() + begin_ + prefix, static_cast<std::size_t>(length));
        begin_ += needed;
        return payload;
      }
    }
    // Make room for the rest of this envelope: unconsumed bytes move to
    // the front, and the buffer grows only to a length already checked
    // against the cap.
    if (begin_ > 0) {
      std::copy(buffer_.begin() + static_cast<std::ptrdiff_t>(begin_),
                buffer_.begin() + static_cast<std::ptrdiff_t>(end_),
                buffer_.begin());
      end_ = available;
      begin_ = 0;
    }
    buffer_.resize(std::max({buffer_.size(), needed, kMinRecvBuffer}));
    EQUIHIST_RETURN_IF_ERROR(PollFd(fd, POLLIN, deadline_micros, stop));
    const ssize_t rc =
        recv(fd, buffer_.data() + end_, buffer_.size() - end_, 0);
    if (rc > 0) {
      end_ += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) return Status::Unavailable("peer closed the connection");
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::Unavailable("recv failed");
    }
  }
}

std::uint64_t ChecksumBytes(std::span<const std::uint8_t> bytes) {
  // FNV-1a 64: cheap, stateless, and plenty for catching injected or real
  // single/multi-byte wire damage (this is an integrity check against
  // accident, not an authenticator).
  std::uint64_t hash = kFnv1aOffsetBasis;
  for (const std::uint8_t byte : bytes) hash = Fnv1aRound(hash, byte);
  return hash;
}

// -- InProcessTransport -----------------------------------------------------

Result<std::vector<std::uint8_t>> InProcessTransport::RoundTrip(
    std::span<const std::uint8_t> frame, std::uint64_t budget_micros) {
  if (budget_micros == 0) {
    return Status::DeadlineExceeded("transport budget exhausted");
  }
  return fleet_->ServeFrame(frame, *table_);
}

// -- SocketTransport --------------------------------------------------------

SocketTransport::SocketTransport(int fd, LinkFaultInjector* injector,
                                 std::uint64_t connection_id)
    : fd_(fd), injector_(injector), connection_id_(connection_id) {}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) close(fd_);
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    const Endpoint& endpoint, std::uint64_t budget_micros,
    LinkFaultInjector* injector, std::uint64_t connection_id) {
  if (budget_micros == 0) {
    return Status::DeadlineExceeded("transport budget exhausted");
  }
  if (injector != nullptr && injector->Partitioned(connection_id)) {
    injector->RecordPartitionHit();
    return Status::Unavailable("link partitioned");
  }
  const std::uint64_t deadline = DeadlineAfter(SteadyMicros(), budget_micros);
  const int fd = socket(
      endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET,
      SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket() failed");
  Status status = SetNonBlocking(fd);
  if (status.ok()) {
    int rc = 0;
    if (endpoint.kind == Endpoint::Kind::kUnix) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (endpoint.path.size() >= sizeof(addr.sun_path)) {
        close(fd);
        return Status::InvalidArgument("unix socket path too long");
      }
      std::memcpy(addr.sun_path, endpoint.path.c_str(),
                  endpoint.path.size() + 1);
      rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
    } else {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(endpoint.port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
    }
    if (rc < 0 && errno == EINPROGRESS) {
      status = PollFd(fd, POLLOUT, deadline, nullptr);
      if (status.ok()) {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
            so_error != 0) {
          status = Status::Unavailable("connect failed");
        }
      }
    } else if (rc < 0) {
      status = Status::Unavailable("connect failed");
    }
  }
  if (!status.ok()) {
    close(fd);
    return status;
  }
  return std::unique_ptr<SocketTransport>(
      new SocketTransport(fd, injector, connection_id));
}

Result<std::vector<std::uint8_t>> SocketTransport::RoundTrip(
    std::span<const std::uint8_t> frame, std::uint64_t budget_micros) {
  MutexLock lock(mu_);
  return RoundTripLocked(frame, budget_micros);
}

Result<std::vector<std::uint8_t>> SocketTransport::RoundTripLocked(
    std::span<const std::uint8_t> frame, std::uint64_t budget_micros) {
  if (broken_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("transport is broken");
  }
  if (budget_micros == 0) {
    return Status::DeadlineExceeded("transport budget exhausted");
  }
  if (injector_ != nullptr && injector_->Partitioned(connection_id_)) {
    injector_->RecordPartitionHit();
    // Severed for good: broken so the pool discards this link and the
    // retry layer dials a fresh connection (new connection id, which the
    // injector may leave unpartitioned — that is how recovery happens).
    broken_.store(true, std::memory_order_relaxed);
    return Status::Unavailable("link partitioned");
  }
  const std::uint64_t deadline = DeadlineAfter(SteadyMicros(), budget_micros);
  const std::uint64_t request_id = next_request_id_++;

  // -- Send leg -------------------------------------------------------------
  bool sent_anything = true;
  {
    std::vector<std::uint8_t> envelope = EncodeEnvelope(
        request_id, budget_micros, /*include_budget=*/true, frame);
    LinkFaultPlan plan{};
    std::uint64_t send_index = 0;
    if (injector_ != nullptr) {
      send_index = send_index_++;
      plan = injector_->Decide(connection_id_, send_index,
                               LinkDirection::kSend);
    }
    if (plan.delay_micros > 0) {
      SleepBounded(plan.delay_micros, deadline, nullptr);
      if (RemainingMicros(deadline) == 0) {
        // Nothing hit the wire; the stream is still in sync.
        return Status::DeadlineExceeded("transport budget exhausted");
      }
    }
    switch (plan.kind) {
      case LinkFaultKind::kNone:
      case LinkFaultKind::kDelay:
        break;
      case LinkFaultKind::kDrop:
        sent_anything = false;  // wait for an answer that cannot come
        break;
      case LinkFaultKind::kTruncate:
        injector_->ApplyTruncate(connection_id_, send_index, envelope);
        break;
      case LinkFaultKind::kCorrupt:
        injector_->ApplyCorrupt(connection_id_, send_index, envelope);
        break;
      case LinkFaultKind::kDuplicate:
        break;  // sent twice below
    }
    if (sent_anything && !envelope.empty()) {
      Status status = SendAll(fd_, envelope, deadline, nullptr);
      if (status.ok() && plan.kind == LinkFaultKind::kDuplicate) {
        status = SendAll(fd_, envelope, deadline, nullptr);
      }
      if (!status.ok()) {
        broken_.store(true, std::memory_order_relaxed);
        return status;
      }
    }
  }

  // -- Receive leg ----------------------------------------------------------
  while (true) {
    Result<std::span<const std::uint8_t>> payload =
        reader_.Next(fd_, deadline, nullptr);
    if (!payload.ok()) {
      // Timeout or stream failure mid-message: the link may still deliver
      // a stale reply later, so it must never be reused.
      broken_.store(true, std::memory_order_relaxed);
      return payload.status();
    }
    Result<DecodedEnvelope> decoded =
        DecodeEnvelopePayload(*payload, /*expect_budget=*/false);
    if (!decoded.ok()) {
      broken_.store(true, std::memory_order_relaxed);
      return Status::Unavailable("malformed transport envelope");
    }
    DecodedEnvelope envelope = std::move(decoded).value();
    LinkFaultPlan plan{};
    std::uint64_t receive_index = 0;
    if (injector_ != nullptr) {
      receive_index = receive_index_++;
      plan = injector_->Decide(connection_id_, receive_index,
                               LinkDirection::kReceive);
    }
    if (plan.delay_micros > 0) {
      SleepBounded(plan.delay_micros, deadline, nullptr);
      if (RemainingMicros(deadline) == 0) {
        broken_.store(true, std::memory_order_relaxed);
        return Status::DeadlineExceeded("transport budget exhausted");
      }
    }
    switch (plan.kind) {
      case LinkFaultKind::kNone:
      case LinkFaultKind::kDelay:
      case LinkFaultKind::kDuplicate:  // the extra copy never materializes
        break;
      case LinkFaultKind::kDrop:
        continue;  // response vanished; keep waiting out the budget
      case LinkFaultKind::kTruncate:
        // Losing a tail mid-stream desyncs the framing for good.
        broken_.store(true, std::memory_order_relaxed);
        return Status::Unavailable("response truncated on the link");
      case LinkFaultKind::kCorrupt:
        injector_->ApplyCorrupt(connection_id_, receive_index,
                                envelope.frame);
        envelope.checksum_ok = false;
        break;
    }
    if (!envelope.checksum_ok) {
      // Framing survived, payload did not: transient wire damage. The
      // stream stays in sync, so the link remains usable.
      return Status::Unavailable("transport checksum mismatch");
    }
    if (envelope.request_id < request_id) continue;  // stale / duplicate
    if (envelope.request_id > request_id) {
      broken_.store(true, std::memory_order_relaxed);
      return Status::Unavailable("transport stream desynchronized");
    }
    return std::move(envelope.frame);
  }
}

// -- SocketTransportServer --------------------------------------------------

struct SocketTransportServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  Mutex write_mu{lockrank::kConnectionWrite};
  std::atomic<bool> done{false};  // reader thread exited
  std::thread reader;
  // Reader thread only:
  EnvelopeReader envelopes;
  std::uint64_t serve_index = 0;  // frames read
};

SocketTransportServer::SocketTransportServer(StatisticsFleet* fleet,
                                             const Table* table,
                                             Options options)
    : fleet_(fleet), table_(table), options_(std::move(options)) {}

SocketTransportServer::~SocketTransportServer() { Stop(); }

Status SocketTransportServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.endpoint.kind == Endpoint::Kind::kUnix) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.endpoint.path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::memcpy(addr.sun_path, options_.endpoint.path.c_str(),
                options_.endpoint.path.size() + 1);
    unlink(options_.endpoint.path.c_str());  // clear a stale socket file
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
      return Status::Unavailable("bind failed");
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.endpoint.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
      return Status::Unavailable("bind failed");
    }
    if (options_.endpoint.port == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) < 0) {
        return Status::Unavailable("getsockname failed");
      }
      options_.endpoint.port = ntohs(bound.sin_port);
    }
  }
  EQUIHIST_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  if (listen(listen_fd_, 16) < 0) {
    return Status::Unavailable("listen failed");
  }
  if (pipe(wake_pipe_) < 0) {
    return Status::Unavailable("pipe failed");
  }
  std::ignore = SetNonBlocking(wake_pipe_[0]);
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return Status::OK();
}

void SocketTransportServer::Stop() {
  if (!started_.load()) return;
  std::vector<std::shared_ptr<Connection>> connections;
  {
    MutexLock lock(mu_);
    if (stopping_.exchange(true)) return;
    connections.swap(connections_);
  }
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    std::ignore = write(wake_pipe_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (const auto& connection : connections) {
    shutdown(connection->fd, SHUT_RDWR);
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
    close(connection->fd);
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      close(fd);
      fd = -1;
    }
  }
  if (options_.endpoint.kind == Endpoint::Kind::kUnix) {
    unlink(options_.endpoint.path.c_str());
  }
}

void SocketTransportServer::AcceptLoop() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (stopping_) return;
      // Reap connections whose reader already exited, so dead links never
      // count against kMaxConnections.
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load(std::memory_order_relaxed)) {
          if ((*it)->reader.joinable()) (*it)->reader.join();
          close((*it)->fd);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = poll(pfds, 2, 100);
    if (rc < 0 && errno != EINTR) return;
    if (rc <= 0 || (pfds[0].revents & POLLIN) == 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    {
      MutexLock lock(mu_);
      if (stopping_ || connections_.size() >= kMaxConnections) {
        // Over the cap (or racing shutdown): close instead of queueing an
        // unbounded backlog. The client sees a dead link and fails over.
        close(fd);
        continue;
      }
      connection->id = next_connection_id_++;
      connections_.push_back(connection);
    }
    if (options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kServerConnections);
      options_.metrics->GaugeAdd(metrics::Gauge::kServerActiveConnections, 1);
    }
    connection->reader =
        std::thread([this, connection]() { ReaderLoop(connection); });
  }
}

void SocketTransportServer::ReaderLoop(std::shared_ptr<Connection> connection) {
  // No deadline on the read: clients bound their own waits, and an idle
  // or half-sent connection costs only this thread, which the stop flag
  // releases within one poll slice (a partial envelope stays buffered).
  while (true) {
    Result<std::span<const std::uint8_t>> payload =
        connection->envelopes.Next(connection->fd, /*deadline_micros=*/0,
                                   &stopping_);
    if (!payload.ok()) {
      break;  // stop, EOF, hostile length, or a desynced stream
    }
    Result<DecodedEnvelope> decoded =
        DecodeEnvelopePayload(*payload, /*expect_budget=*/true);
    if (!decoded.ok()) break;
    DecodedEnvelope envelope = std::move(decoded).value();
    const std::uint64_t serve_index = connection->serve_index++;
    if (!envelope.checksum_ok) {
      // The framing is intact, so the stream stays usable; answer with
      // the transient-damage rejection the client retries.
      RejectWith(connection, envelope.request_id,
                 Status::Unavailable("transport checksum mismatch"),
                 metrics::Counter::kServerRejects);
      continue;
    }
    WorkItem item;
    item.connection = connection;
    item.frame = std::move(envelope.frame);
    item.request_id = envelope.request_id;
    item.enqueued_micros = SteadyMicros();
    item.deadline_micros =
        DeadlineAfter(item.enqueued_micros, envelope.budget_micros);
    // Stash the per-connection frame index for the serve-direction chaos
    // decision; request ids restart per connection so they cannot key it.
    item.serve_index = serve_index;
    Admit(std::move(item));
  }
  connection->done.store(true, std::memory_order_relaxed);
  if (options_.metrics != nullptr) {
    options_.metrics->GaugeAdd(metrics::Gauge::kServerActiveConnections, -1);
  }
}

void SocketTransportServer::Admit(WorkItem item) {
  bool queued = false;
  WorkItem shed;
  bool have_shed = false;
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    if (serving_ < options_.workers) {
      ++serving_;
    } else {
      queued = true;
      queue_.push_back(std::move(item));
      if (queue_.size() > options_.queue_capacity) {
        // Shed the entry with the OLDEST remaining deadline: it is the one
        // most likely already dead on arrival, and dropping it preserves
        // the most future work. The incoming item competes like any other.
        auto oldest = queue_.begin();
        for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
          if (it->deadline_micros < oldest->deadline_micros) oldest = it;
        }
        shed = std::move(*oldest);
        queue_.erase(oldest);
        have_shed = true;
      }
      if (options_.metrics != nullptr) {
        options_.metrics->GaugeSet(metrics::Gauge::kServerQueueDepth,
                                   queue_.size());
      }
    }
  }
  if (have_shed) {
    if (options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kServerShedDrops);
    }
    RejectWith(shed.connection, shed.request_id,
               Status::ResourceExhausted("server work queue full"),
               metrics::Counter::kServerRejects);
  }
  if (queued) return;
  // This thread holds a serving slot: its own frame first, then whatever
  // queued meanwhile. The slot is released in the same critical section
  // that sees the queue empty, so a reader that queues a frame either
  // finds the slot free or leaves the frame to a holder that will pop it.
  while (true) {
    Serve(std::move(item));
    MutexLock lock(mu_);
    if (queue_.empty() || stopping_) {
      --serving_;
      return;
    }
    item = std::move(queue_.front());
    queue_.pop_front();
    if (options_.metrics != nullptr) {
      options_.metrics->GaugeSet(metrics::Gauge::kServerQueueDepth,
                                 queue_.size());
    }
  }
}

void SocketTransportServer::Serve(WorkItem item) {
  const std::uint64_t now = SteadyMicros();
  if (options_.metrics != nullptr) {
    options_.metrics->Observe(metrics::Hist::kServerQueueWaitMicros,
                              now - item.enqueued_micros);
  }
  // Admission: serving a request whose client already gave up burns
  // serve time nobody benefits from — answer with the typed expiry.
  if (now >= item.deadline_micros) {
    if (options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kServerExpiredDrops);
    }
    RejectWith(item.connection, item.request_id,
               Status::DeadlineExceeded("deadline expired before serving"),
               metrics::Counter::kServerRejects);
    return;
  }
  if (options_.injector != nullptr) {
    const LinkFaultPlan plan = options_.injector->Decide(
        item.connection->id, item.serve_index, LinkDirection::kServe);
    // A slow handler: sleeps through the client's deadline if the spec
    // says so (sliced so shutdown stays prompt).
    if (plan.delay_micros > 0) SleepBounded(plan.delay_micros, 0, &stopping_);
    if (plan.kind == LinkFaultKind::kDrop) {
      return;  // a wedged handler: never replies at all
    }
  }
  Result<std::vector<std::uint8_t>> response =
      fleet_->ServeFrame(item.frame, *table_);
  if (!response.ok()) {
    RejectWith(item.connection, item.request_id, response.status(),
               metrics::Counter::kServerRejects);
    return;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->Increment(metrics::Counter::kServerFramesServed);
  }
  Reply(item.connection, item.request_id, *response);
}

void SocketTransportServer::Reply(
    const std::shared_ptr<Connection>& connection, std::uint64_t request_id,
    std::span<const std::uint8_t> frame) {
  const std::vector<std::uint8_t> envelope =
      EncodeEnvelope(request_id, 0, /*include_budget=*/false, frame);
  MutexLock lock(connection->write_mu);
  // A stuck client must not pin a serving thread: bound the write and
  // abandon the link on failure (the client's own deadline covers the
  // loss).
  if (!SendAll(connection->fd, envelope, SteadyMicros() + 1'000'000, nullptr)
           .ok()) {
    shutdown(connection->fd, SHUT_RDWR);
  }
}

void SocketTransportServer::RejectWith(
    const std::shared_ptr<Connection>& connection, std::uint64_t request_id,
    const Status& error, metrics::Counter counter) {
  if (options_.metrics != nullptr) {
    options_.metrics->Increment(counter);
  }
  const std::vector<std::uint8_t> frame = fleetwire::Encode(
      fleetwire::RejectionFrame{error.code(), error.message()});
  Reply(connection, request_id, frame);
}

}  // namespace equihist::transport
