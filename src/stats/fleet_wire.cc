#include "stats/fleet_wire.h"

#include <cstddef>
#include <utility>

#include "stats/wire_format.h"

namespace equihist::fleetwire {
namespace {

constexpr std::size_t kHeaderBytes = 4;

// A frame buffer holding the 4-byte header, with room reserved for the
// `payload` bytes that follow, so encoding never regrows it.
std::vector<std::uint8_t> StartFrame(FrameType type, std::size_t payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  return out;
}

std::size_t StringSize(const std::string& s) {
  return wire::VarintSize(s.size()) + s.size();
}

void PutString(const std::string& s, std::vector<std::uint8_t>* out) {
  wire::PutVarint(s.size(), out);
  out->insert(out->end(), s.begin(), s.end());
}

// Reads a length-prefixed string into `out` in one copy.
Status ReadString(wire::Reader& reader, std::string* out) {
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t len,
                            reader.LengthPrefixedCount(1));
  EQUIHIST_ASSIGN_OR_RETURN(const std::span<const std::uint8_t> bytes,
                            reader.Bytes(static_cast<std::size_t>(len)));
  out->assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return Status::OK();
}

// Consumes and validates the 4-byte header; `expected` pins the type.
Status ReadHeader(wire::Reader& reader, FrameType expected) {
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t m0, reader.Byte());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t m1, reader.Byte());
  if (m0 != kMagic0 || m1 != kMagic1) {
    return Status::InvalidArgument("bad fleet frame magic");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t version, reader.Byte());
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported fleet frame version");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t type, reader.Byte());
  if (type != static_cast<std::uint8_t>(expected)) {
    return Status::InvalidArgument("unexpected fleet frame type");
  }
  return Status::OK();
}

Status CheckFullyConsumed(const wire::Reader& reader) {
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after fleet frame");
  }
  return Status::OK();
}

}  // namespace

std::vector<std::uint8_t> Encode(const EstimateBatchRequestFrame& frame) {
  std::size_t payload = wire::VarintSize(frame.requests.size());
  for (const BatchEstimateRequest& request : frame.requests) {
    payload += StringSize(request.column) +
               wire::VarintSize(wire::ZigZag(request.query.lo)) +
               wire::VarintSize(wire::ZigZag(request.query.hi));
  }
  std::vector<std::uint8_t> out =
      StartFrame(FrameType::kEstimateBatchRequest, payload);
  wire::PutVarint(frame.requests.size(), &out);
  for (const BatchEstimateRequest& request : frame.requests) {
    PutString(request.column, &out);
    wire::PutSigned(request.query.lo, &out);
    wire::PutSigned(request.query.hi, &out);
  }
  return out;
}

std::vector<std::uint8_t> Encode(const EstimateBatchResponseFrame& frame) {
  std::vector<std::uint8_t> out =
      StartFrame(FrameType::kEstimateBatchResponse,
                 wire::VarintSize(frame.estimates.size()) +
                     frame.estimates.size() * sizeof(double));
  wire::PutVarint(frame.estimates.size(), &out);
  for (const double estimate : frame.estimates) {
    wire::PutF64(estimate, &out);
  }
  return out;
}

std::vector<std::uint8_t> Encode(const BuildControlRequestFrame& frame) {
  std::vector<std::uint8_t> out = StartFrame(
      FrameType::kBuildControlRequest,
      1 + StringSize(frame.column) +
          (frame.op == BuildOp::kRecordModifications
               ? wire::VarintSize(frame.count)
               : 0));
  out.push_back(static_cast<std::uint8_t>(frame.op));
  PutString(frame.column, &out);
  if (frame.op == BuildOp::kRecordModifications) {
    wire::PutVarint(frame.count, &out);
  }
  return out;
}

std::vector<std::uint8_t> Encode(const BuildControlResponseFrame& frame) {
  std::vector<std::uint8_t> out = StartFrame(
      FrameType::kBuildControlResponse, 1 + StringSize(frame.message));
  out.push_back(static_cast<std::uint8_t>(frame.code));
  PutString(frame.message, &out);
  return out;
}

std::vector<std::uint8_t> EncodeMetricsRequest() {
  return StartFrame(FrameType::kMetricsRequest, 0);
}

std::vector<std::uint8_t> Encode(const MetricsResponseFrame& frame) {
  std::vector<std::uint8_t> out =
      StartFrame(FrameType::kMetricsResponse, StringSize(frame.json));
  PutString(frame.json, &out);
  return out;
}

std::vector<std::uint8_t> Encode(const RejectionFrame& frame) {
  std::vector<std::uint8_t> out =
      StartFrame(FrameType::kRejection, 1 + StringSize(frame.message));
  out.push_back(static_cast<std::uint8_t>(frame.code));
  PutString(frame.message, &out);
  return out;
}

Result<FrameType> PeekType(std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t m0, reader.Byte());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t m1, reader.Byte());
  if (m0 != kMagic0 || m1 != kMagic1) {
    return Status::InvalidArgument("bad fleet frame magic");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t version, reader.Byte());
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported fleet frame version");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t type, reader.Byte());
  if (type < static_cast<std::uint8_t>(FrameType::kEstimateBatchRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kRejection)) {
    return Status::InvalidArgument("unknown fleet frame type");
  }
  return static_cast<FrameType>(type);
}

Result<EstimateBatchRequestFrame> DecodeEstimateBatchRequest(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kEstimateBatchRequest));
  // Each request is at least 3 bytes (length prefix + two varints).
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t count,
                            reader.LengthPrefixedCount(3));
  EstimateBatchRequestFrame frame;
  frame.requests.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    BatchEstimateRequest& request = frame.requests.emplace_back();
    EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &request.column));
    EQUIHIST_ASSIGN_OR_RETURN(request.query.lo, reader.Signed());
    EQUIHIST_ASSIGN_OR_RETURN(request.query.hi, reader.Signed());
    if (request.query.lo > request.query.hi) {
      return Status::InvalidArgument("fleet frame range has lo > hi");
    }
  }
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<EstimateBatchResponseFrame> DecodeEstimateBatchResponse(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kEstimateBatchResponse));
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t count,
                            reader.LengthPrefixedCount(8));
  EstimateBatchResponseFrame frame;
  frame.estimates.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    EQUIHIST_ASSIGN_OR_RETURN(const double estimate, reader.F64());
    frame.estimates.push_back(estimate);
  }
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<BuildControlRequestFrame> DecodeBuildControlRequest(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kBuildControlRequest));
  BuildControlRequestFrame frame;
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t op, reader.Byte());
  if (op > static_cast<std::uint8_t>(BuildOp::kRecordModifications)) {
    return Status::InvalidArgument("unknown fleet build op");
  }
  frame.op = static_cast<BuildOp>(op);
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.column));
  if (frame.column.empty()) {
    return Status::InvalidArgument("fleet build op names no column");
  }
  if (frame.op == BuildOp::kRecordModifications) {
    EQUIHIST_ASSIGN_OR_RETURN(frame.count, reader.Varint());
  }
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<BuildControlResponseFrame> DecodeBuildControlResponse(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kBuildControlResponse));
  BuildControlResponseFrame frame;
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t code, reader.Byte());
  if (code > static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("unknown status code in fleet frame");
  }
  frame.code = static_cast<StatusCode>(code);
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.message));
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Status DecodeMetricsRequest(std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(ReadHeader(reader, FrameType::kMetricsRequest));
  return CheckFullyConsumed(reader);
}

Result<MetricsResponseFrame> DecodeMetricsResponse(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(ReadHeader(reader, FrameType::kMetricsResponse));
  MetricsResponseFrame frame;
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.json));
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<RejectionFrame> DecodeRejection(std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(ReadHeader(reader, FrameType::kRejection));
  RejectionFrame frame;
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t code, reader.Byte());
  if (code == static_cast<std::uint8_t>(StatusCode::kOk) ||
      code > static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("rejection frame carries no valid error");
  }
  frame.code = static_cast<StatusCode>(code);
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.message));
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

}  // namespace equihist::fleetwire
