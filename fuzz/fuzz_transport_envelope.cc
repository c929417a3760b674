// Fuzz target: the transport envelope codec (stats/transport.h) — the
// outermost decoder the socket server runs on bytes straight off a
// connection. Two modes:
//
//   mode 0 — DecodeEnvelopePayload on arbitrary bytes, both with and
//            without the request-only budget field. An accepted payload
//            with an intact checksum must re-encode through
//            EncodeEnvelope to a message whose payload decodes back to
//            the same fields with checksum_ok (encode/decode coherence).
//   mode 1 — the streaming path: the bytes are written into a socketpair
//            and one EnvelopeReader reads envelopes back under a real
//            deadline until it errors — the exact framing path of the
//            client and every server connection (varint length prefix,
//            the 1 MiB admission cap, bytes carried over from one
//            envelope to the next). Every call must return within the
//            deadline; each payload must byte-match the next envelope an
//            offline rescan of the same bytes finds, and the reader may
//            stop short of a whole envelope only on a timeout.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/timer.h"
#include "fuzz_util.h"
#include "stats/transport.h"
#include "stats/wire_format.h"

using equihist::SteadyMicros;
using equihist::fuzz::ByteStream;
using equihist::transport::kMaxFrameBytes;

namespace {

void FuzzDecode(std::span<const std::uint8_t> bytes, bool expect_budget) {
  const auto decoded =
      equihist::transport::DecodeEnvelopePayload(bytes, expect_budget);
  if (!decoded.ok() || !decoded->checksum_ok) return;

  const std::vector<std::uint8_t> message = equihist::transport::EncodeEnvelope(
      decoded->request_id, decoded->budget_micros, expect_budget,
      decoded->frame);
  // Strip the length prefix: the encoder frames payload bytes the decoder
  // never sees.
  equihist::wire::Reader reader(message);
  const auto length = reader.Varint();
  FUZZ_CHECK(length.ok(), "encoded envelope has no length prefix");
  FUZZ_CHECK(*length == message.size() - reader.position(),
             "length prefix disagrees with the payload");
  const std::span<const std::uint8_t> payload(message.data() +
                                                  reader.position(),
                                              message.size() -
                                                  reader.position());
  const auto again =
      equihist::transport::DecodeEnvelopePayload(payload, expect_budget);
  FUZZ_CHECK(again.ok(), "re-encoded envelope failed to decode");
  FUZZ_CHECK(again->checksum_ok, "re-encoded envelope checksum mismatch");
  FUZZ_CHECK(again->request_id == decoded->request_id &&
                 again->frame == decoded->frame &&
                 (!expect_budget ||
                  again->budget_micros == decoded->budget_micros),
             "envelope round trip changed fields");
}

void FuzzRecvStream(std::span<const std::uint8_t> bytes) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;

  // Write then read on one thread: cap the write far below the kernel's
  // socketpair buffer so it cannot block.
  const std::size_t n = std::min<std::size_t>(bytes.size(), 60'000);
  std::size_t written = 0;
  while (written < n) {
    const ssize_t rc = write(fds[1], bytes.data() + written, n - written);
    if (rc <= 0) break;
    written += static_cast<std::size_t>(rc);
  }
  shutdown(fds[1], SHUT_WR);  // EOF after the fuzz bytes
  const std::span<const std::uint8_t> stream(bytes.data(), written);

  const std::uint64_t deadline = SteadyMicros() + 200'000;
  equihist::transport::EnvelopeReader envelopes;
  std::size_t offset = 0;  // where the offline rescan expects the next one
  while (true) {
    equihist::wire::Reader rescan(stream.subspan(offset));
    const auto length = rescan.Varint();
    const bool whole = length.ok() && *length > 0 &&
                       *length <= kMaxFrameBytes &&
                       *length <= rescan.remaining();
    const auto payload = envelopes.Next(fds[0], deadline, nullptr);
    FUZZ_CHECK(SteadyMicros() <= deadline + 1'000'000,
               "EnvelopeReader overran its deadline");
    if (!payload.ok()) {
      FUZZ_CHECK(!whole || payload.status().code() ==
                               equihist::StatusCode::kDeadlineExceeded,
                 "EnvelopeReader rejected a whole envelope");
      break;
    }
    FUZZ_CHECK(whole && *length == payload->size(),
               "received payload disagrees with the length prefix");
    FUZZ_CHECK(std::equal(payload->begin(), payload->end(),
                          stream.begin() + static_cast<std::ptrdiff_t>(
                                               offset + rescan.position())),
               "received payload bytes differ from the stream");
    offset += rescan.position() + payload->size();
    // And the production next step must be total: decode both ways.
    (void)equihist::transport::DecodeEnvelopePayload(*payload, true);
    (void)equihist::transport::DecodeEnvelopePayload(*payload, false);
  }
  close(fds[0]);
  close(fds[1]);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  ByteStream stream(data, size);
  const std::uint8_t selector = stream.U8();
  const std::span<const std::uint8_t> rest = stream.Rest();
  if ((selector & 1) == 0) {
    FuzzDecode(rest, (selector & 2) != 0);
  } else {
    FuzzRecvStream(rest);
  }
  return 0;
}
