// Seed-corpus generator for the fuzz/ harnesses. Each seed is a *valid*
// instance of the structure its target decodes — a serialized histogram,
// an encoded frame, a framed envelope — prefixed with the harness's mode
// byte where one exists, so campaigns start from deep inside the accept
// paths instead of spending their budget rediscovering magic bytes.
//
// Usage: make_fuzz_corpus <output-root>
// Writes corpus files under <output-root>/<target>/<name>. The checked-in
// fuzz/corpus/ tree is this program's output, regenerated whenever a wire
// format changes shape.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "sampling/reservoir.h"
#include "stats/column_statistics.h"
#include "stats/fleet_wire.h"
#include "stats/histogram_backends.h"
#include "stats/serialization.h"
#include "stats/transport.h"
#include "stats/wire_format.h"

namespace {

using Bytes = std::vector<std::uint8_t>;

void WriteSeed(const std::filesystem::path& root, const std::string& target,
               const std::string& name, const Bytes& bytes) {
  const std::filesystem::path dir = root / target;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Bytes WithMode(std::uint8_t mode, const Bytes& rest) {
  Bytes out(rest.size() + 1);
  out[0] = mode;
  std::copy(rest.begin(), rest.end(), out.begin() + 1);
  return out;
}

equihist::Histogram SampleHistogram() {
  // Duplicated separator (a Section-5 spike at 30) included on purpose.
  return equihist::Histogram::Create({10, 20, 30, 30, 47},
                                     {5, 9, 14, 400, 3, 12}, 0, 60)
      .value();
}

void WireReaderSeeds(const std::filesystem::path& root) {
  Bytes stream;
  equihist::wire::PutVarint(0, &stream);
  equihist::wire::PutVarint(127, &stream);
  equihist::wire::PutVarint(128, &stream);
  equihist::wire::PutVarint(~std::uint64_t{0}, &stream);  // 10-byte maximal
  equihist::wire::PutSigned(-1, &stream);
  equihist::wire::PutF64(3.25, &stream);
  equihist::wire::PutVarint(2, &stream);  // plausible length prefix
  stream.push_back(0xAA);
  stream.push_back(0xBB);
  WriteSeed(root, "fuzz_wire_reader", "hostile_varints", WithMode(0, stream));

  Bytes values;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{300}, ~std::uint64_t{0},
        std::uint64_t{0x8000000000000000ULL}}) {
    for (int i = 0; i < 8; ++i) {
      values.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  WriteSeed(root, "fuzz_wire_reader", "round_trip_values",
            WithMode(1, values));
}

void HistogramSeeds(const std::filesystem::path& root) {
  const equihist::Histogram histogram = SampleHistogram();
  Bytes container;
  equihist::SerializeHistogram(histogram, &container);
  WriteSeed(root, "fuzz_histogram_deserialize", "equiheight_v2", container);

  // Backend id 3 decodes only: no build writes it, so this seed is what
  // keeps the campaign inside its decoder.
  Bytes gmp;
  equihist::SerializeHistogramModel(equihist::GmpSnapshotModel(histogram),
                                    &gmp);
  WriteSeed(root, "fuzz_histogram_deserialize", "gmp_snapshot_v2", gmp);

  equihist::ColumnStatistics stats;
  stats.SetEquiHeight(histogram);
  stats.density = 0.125;
  stats.distinct_estimate = 42.0;
  stats.row_count = 443;
  stats.sample_size = 120;
  stats.heavy_hitters = {{30, 400}};
  Bytes full;
  equihist::SerializeColumnStatistics(stats, &full);
  WriteSeed(root, "fuzz_histogram_deserialize", "column_statistics", full);
}

void ReservoirSeeds(const std::filesystem::path& root) {
  auto reservoir = *equihist::BackingReservoir::Create(8, 99);
  const std::vector<equihist::Value> sample = {3, 1, 4, 1, 5};
  (void)reservoir.SeedFromSample(sample, 100);
  for (equihist::Value v = 0; v < 20; ++v) reservoir.Add(v);
  (void)reservoir.Delete(3);
  Bytes serialized;
  reservoir.SerializeTo(&serialized);
  WriteSeed(root, "fuzz_reservoir", "serialized_state",
            WithMode(0, serialized));

  // mode 1 structured stream: capacity/seed words then ops.
  Bytes ops;
  for (int i = 0; i < 64; ++i) {
    ops.push_back(static_cast<std::uint8_t>(i * 37));
  }
  WriteSeed(root, "fuzz_reservoir", "op_stream", WithMode(1, ops));
}

void FleetWireSeeds(const std::filesystem::path& root) {
  using namespace equihist::fleetwire;
  const Bytes estimate_req = Encode(EstimateBatchRequestFrame{
      {{"t.c1", {5, 25}}, {"t.c2", {0, 60}}}});
  const Bytes estimate_resp = Encode(EstimateBatchResponseFrame{{12.5, 60.0}});
  const Bytes build_req = Encode(BuildControlRequestFrame{
      BuildOp::kEnsureFresh, "t.c1", 0});
  const Bytes build_resp = Encode(BuildControlResponseFrame{
      equihist::StatusCode::kOk, ""});
  const Bytes metrics_req = EncodeMetricsRequest();
  const Bytes metrics_resp = Encode(MetricsResponseFrame{"{\"fleet\":{}}"});
  const Bytes rejection = Encode(RejectionFrame{
      equihist::StatusCode::kResourceExhausted, "shedding load"});

  WriteSeed(root, "fuzz_fleet_wire", "estimate_request",
            WithMode(0, estimate_req));
  WriteSeed(root, "fuzz_fleet_wire", "estimate_response",
            WithMode(1, estimate_resp));
  WriteSeed(root, "fuzz_fleet_wire", "build_request", WithMode(2, build_req));
  WriteSeed(root, "fuzz_fleet_wire", "build_response",
            WithMode(3, build_resp));
  WriteSeed(root, "fuzz_fleet_wire", "metrics_request",
            WithMode(4, metrics_req));
  WriteSeed(root, "fuzz_fleet_wire", "metrics_response",
            WithMode(5, metrics_resp));
  WriteSeed(root, "fuzz_fleet_wire", "rejection", WithMode(6, rejection));
  WriteSeed(root, "fuzz_fleet_wire", "peek", WithMode(7, estimate_req));
  WriteSeed(root, "fuzz_fleet_wire", "serve_estimate",
            WithMode(8, estimate_req));
  WriteSeed(root, "fuzz_fleet_wire", "serve_build", WithMode(8, build_req));
  WriteSeed(root, "fuzz_fleet_wire", "serve_metrics",
            WithMode(8, metrics_req));
}

void EnvelopeSeeds(const std::filesystem::path& root) {
  const Bytes frame = equihist::fleetwire::EncodeMetricsRequest();
  const Bytes message = equihist::transport::EncodeEnvelope(
      /*request_id=*/7, /*budget_micros=*/250'000, /*include_budget=*/true,
      frame);

  // mode 0 decodes a bare payload: strip the length prefix.
  equihist::wire::Reader reader(message);
  const auto length = reader.Varint();
  Bytes payload(message.begin() +
                    static_cast<std::ptrdiff_t>(reader.position()),
                message.end());
  (void)length;
  // selector bit0=0 -> decode; bit1 -> expect_budget.
  WriteSeed(root, "fuzz_transport_envelope", "payload_with_budget",
            WithMode(2, payload));
  WriteSeed(root, "fuzz_transport_envelope", "payload_no_budget",
            WithMode(0, payload));
  // selector bit0=1 -> socket stream mode gets the whole framed message.
  WriteSeed(root, "fuzz_transport_envelope", "framed_stream",
            WithMode(1, message));
  // Two whole envelopes and a truncated third in one stream: the reader
  // carries bytes from one envelope into the next.
  Bytes pipelined = message;
  const Bytes reply = equihist::transport::EncodeEnvelope(
      /*request_id=*/8, /*budget_micros=*/0, /*include_budget=*/false, frame);
  pipelined.insert(pipelined.end(), reply.begin(), reply.end());
  pipelined.insert(pipelined.end(), message.begin(),
                   message.begin() +
                       static_cast<std::ptrdiff_t>(message.size() / 2));
  WriteSeed(root, "fuzz_transport_envelope", "pipelined_stream",
            WithMode(1, pipelined));
}

void EstimatorSeeds(const std::filesystem::path& root) {
  // The harness decodes any bytes into a valid spec; seeds just pick
  // useful regions: small-k moderate fences and large-k extreme fences.
  Bytes small;
  small.push_back(4);   // k material
  small.push_back(0);   // moderate fences
  for (int i = 0; i < 96; ++i) {
    small.push_back(static_cast<std::uint8_t>(i * 11));
  }
  WriteSeed(root, "fuzz_estimator_kernels", "small_moderate", small);

  Bytes large;
  large.push_back(0xFF);  // k material (large)
  large.push_back(1);     // extreme fences
  for (int i = 0; i < 512; ++i) {
    large.push_back(static_cast<std::uint8_t>((i * 29) ^ (i >> 3)));
  }
  WriteSeed(root, "fuzz_estimator_kernels", "large_extreme", large);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-root>\n", argv[0]);
    return 1;
  }
  const std::filesystem::path root = argv[1];
  WireReaderSeeds(root);
  HistogramSeeds(root);
  ReservoirSeeds(root);
  FleetWireSeeds(root);
  EnvelopeSeeds(root);
  EstimatorSeeds(root);
  std::fprintf(stderr, "corpus written under %s\n", root.string().c_str());
  return 0;
}
