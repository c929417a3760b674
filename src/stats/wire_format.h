#ifndef EQUIHIST_STATS_WIRE_FORMAT_H_
#define EQUIHIST_STATS_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/result.h"

namespace equihist::wire {

// Little-endian varint/zigzag primitives shared by the serialization
// container (stats/serialization.cc) and the per-backend payload codecs
// (stats/histogram_backends.cc). Header-only so a registered backend
// outside this library can speak the same wire dialect.

// Bytes PutVarint writes for `v`, for sizing a buffer before encoding.
inline std::size_t VarintSize(std::uint64_t v) {
  std::size_t size = 1;
  for (; v >= 0x80; v >>= 7) ++size;
  return size;
}

inline void PutVarint(std::uint64_t v, std::vector<std::uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void PutSigned(std::int64_t v, std::vector<std::uint8_t>* out) {
  PutVarint(ZigZag(v), out);
}

// Wrapping signed subtraction / addition through unsigned arithmetic: the
// delta encoding must survive values anywhere in the int64 domain, where
// plain signed operations overflow (UB). Wrapping is exact —
// WrapAdd(b, WrapSub(a, b)) == a for every pair, including on corrupted
// deltas, which therefore decode to *some* value and are caught by the
// structural validation that follows, never by UB.
inline std::int64_t WrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t WrapAdd(std::int64_t a, std::int64_t delta) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(delta));
}

inline void PutF64(double v, std::vector<std::uint8_t>* out) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  out->insert(out->end(), bytes, bytes + 8);
}

// A bounds-checked reader over the byte span. Every accessor returns
// Status on truncation; corrupted input can never read past the buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  Result<std::uint64_t> Varint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= bytes_.size()) {
        return Status::InvalidArgument("truncated varint");
      }
      if (shift >= 64) {
        return Status::InvalidArgument("varint overflows 64 bits");
      }
      const std::uint8_t byte = bytes_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }

  // A varint that announces `per_element` more bytes per counted element
  // (e.g. a length prefix). Rejected up front when the remaining buffer
  // cannot possibly hold that many elements, so a corrupted length can
  // neither over-allocate nor start a doomed multi-gigabyte parse loop.
  Result<std::uint64_t> LengthPrefixedCount(std::uint64_t per_element = 1) {
    EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t count, Varint());
    if (per_element == 0) per_element = 1;
    if (count > remaining() / per_element) {
      return Status::InvalidArgument(
          "length prefix exceeds the remaining buffer");
    }
    return count;
  }

  Result<std::int64_t> Signed() {
    EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t raw, Varint());
    return UnZigZag(raw);
  }

  Result<std::uint8_t> Byte() {
    if (pos_ >= bytes_.size()) {
      return Status::InvalidArgument("truncated byte");
    }
    return bytes_[pos_++];
  }

  // The next `n` bytes as one view into the buffer.
  Result<std::span<const std::uint8_t>> Bytes(std::size_t n) {
    if (remaining() < n) {
      return Status::InvalidArgument("truncated bytes");
    }
    const std::span<const std::uint8_t> bytes = bytes_.subspan(pos_, n);
    pos_ += n;
    return bytes;
  }

  Result<double> F64() {
    if (remaining() < 8) {
      return Status::InvalidArgument("truncated double");
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace equihist::wire

#endif  // EQUIHIST_STATS_WIRE_FORMAT_H_
