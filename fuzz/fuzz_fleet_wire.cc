// Fuzz target: the fleetwire frame codec (stats/fleet_wire.h) and the
// fleet's frame-serving entry point (StatisticsFleet::ServeFrame). The
// first input byte picks the attack surface:
//
//   0-6 — one typed decoder gets the rest of the bytes. An accepted frame
//         must re-encode and re-decode to the same frame (decoders reject
//         trailing bytes, so Encode ∘ Decode is a canonicalizing
//         fixpoint).
//   7   — PeekType on arbitrary bytes.
//   else — ServeFrame against a small live fleet (2 shards, a real table):
//         the full production dispatch — magic/version check, typed
//         decode, estimate or build-control execution, response encode.
//         Whatever the bytes, ServeFrame must return a typed Status or a
//         decodable response frame, never crash, and never wedge.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/distribution.h"
#include "fuzz_util.h"
#include "stats/fleet_wire.h"
#include "stats/statistics_fleet.h"
#include "storage/table.h"

using equihist::fuzz::ByteStream;

namespace {

// The live fleet the ServeFrame mode attacks: built once, deliberately
// tiny (builds triggered by fuzzed build-control frames stay cheap) but
// real — a Zipf table, 2 shards, the normal build pipeline.
struct LiveFleet {
  equihist::Table table;
  equihist::StatisticsFleet fleet;

  LiveFleet()
      : table(MakeTable()),
        fleet(equihist::StatisticsFleet::Options{
            .shards = 2,
            .shard = {.buckets = 8, .f = 0.5, .seed = 17, .threads = 1},
        }) {}

  static equihist::Table MakeTable() {
    const auto freq = equihist::MakeZipf(
        {.n = 2000, .domain_size = 100, .skew = 1.1, .seed = 7});
    return equihist::Table::Create(*freq, {8192, 64},
                                   {.kind = equihist::LayoutKind::kRandom,
                                    .seed = 7})
        .value();
  }

  // Fuzzed build-control frames insert one shard entry per unique column
  // name, so a long campaign would grow the fleet without bound; the
  // instance is recycled periodically to keep the working set flat.
  static LiveFleet& Instance() {
    static std::unique_ptr<LiveFleet> instance = std::make_unique<LiveFleet>();
    static std::uint64_t serves = 0;
    if (++serves % 16384 == 0) instance = std::make_unique<LiveFleet>();
    return *instance;
  }
};

template <typename Frame, typename DecodeFn>
void RoundTrip(std::span<const std::uint8_t> bytes, DecodeFn decode) {
  const auto frame = decode(bytes);
  if (!frame.ok()) return;
  const std::vector<std::uint8_t> encoded = equihist::fleetwire::Encode(*frame);
  const auto again = decode(encoded);
  FUZZ_CHECK(again.ok(), "re-encoded frame failed to decode");
  const std::vector<std::uint8_t> second = equihist::fleetwire::Encode(*again);
  FUZZ_CHECK(encoded == second, "frame encoding is not a fixpoint");
}

void FuzzServeFrame(std::span<const std::uint8_t> bytes) {
  LiveFleet& live = LiveFleet::Instance();
  const auto response = live.fleet.ServeFrame(bytes, live.table);
  if (!response.ok()) return;
  // A served response is itself a well-formed frame of a response type.
  const auto type = equihist::fleetwire::PeekType(*response);
  FUZZ_CHECK(type.ok(), "ServeFrame returned an unframed response");
  switch (*type) {
    case equihist::fleetwire::FrameType::kEstimateBatchResponse:
      FUZZ_CHECK(
          equihist::fleetwire::DecodeEstimateBatchResponse(*response).ok(),
          "undecodable estimate response");
      break;
    case equihist::fleetwire::FrameType::kBuildControlResponse:
      FUZZ_CHECK(
          equihist::fleetwire::DecodeBuildControlResponse(*response).ok(),
          "undecodable build-control response");
      break;
    case equihist::fleetwire::FrameType::kMetricsResponse:
      FUZZ_CHECK(equihist::fleetwire::DecodeMetricsResponse(*response).ok(),
                 "undecodable metrics response");
      break;
    case equihist::fleetwire::FrameType::kRejection: {
      const auto rejection = equihist::fleetwire::DecodeRejection(*response);
      FUZZ_CHECK(rejection.ok(), "undecodable rejection");
      FUZZ_CHECK(rejection->code != equihist::StatusCode::kOk,
                 "rejection carrying kOk");
      break;
    }
    default:
      FUZZ_CHECK(false, "ServeFrame returned a request-typed frame");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  ByteStream stream(data, size);
  const std::uint8_t mode = stream.U8() % 9;
  const std::span<const std::uint8_t> rest = stream.Rest();
  switch (mode) {
    case 0:
      RoundTrip<equihist::fleetwire::EstimateBatchRequestFrame>(
          rest, equihist::fleetwire::DecodeEstimateBatchRequest);
      break;
    case 1:
      RoundTrip<equihist::fleetwire::EstimateBatchResponseFrame>(
          rest, equihist::fleetwire::DecodeEstimateBatchResponse);
      break;
    case 2:
      RoundTrip<equihist::fleetwire::BuildControlRequestFrame>(
          rest, equihist::fleetwire::DecodeBuildControlRequest);
      break;
    case 3:
      RoundTrip<equihist::fleetwire::BuildControlResponseFrame>(
          rest, equihist::fleetwire::DecodeBuildControlResponse);
      break;
    case 4:
      // Metrics requests carry no payload; the decoder is a pure
      // validator.
      (void)equihist::fleetwire::DecodeMetricsRequest(rest);
      break;
    case 5:
      RoundTrip<equihist::fleetwire::MetricsResponseFrame>(
          rest, equihist::fleetwire::DecodeMetricsResponse);
      break;
    case 6:
      RoundTrip<equihist::fleetwire::RejectionFrame>(
          rest, equihist::fleetwire::DecodeRejection);
      break;
    case 7:
      (void)equihist::fleetwire::PeekType(rest);
      break;
    default:
      FuzzServeFrame(rest);
      break;
  }
  return 0;
}
