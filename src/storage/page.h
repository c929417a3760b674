#ifndef EQUIHIST_STORAGE_PAGE_H_
#define EQUIHIST_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/distribution.h"

namespace equihist {

// Geometry of the simulated disk pages. SQL Server 7.0 used 8 KB pages; the
// paper varies the record size 16..128 bytes to vary the blocking factor
// (records per page), so both knobs are explicit here.
struct PageConfig {
  std::uint32_t page_size_bytes = 8192;
  std::uint32_t record_size_bytes = 64;

  // Records per page (the paper's b). Zero if misconfigured.
  std::uint32_t TuplesPerPage() const {
    if (record_size_bytes == 0) return 0;
    return page_size_bytes / record_size_bytes;
  }
};

Status ValidatePageConfig(const PageConfig& config);

// One simulated disk page: a fixed-capacity slotted run of records. Only
// the studied attribute is materialized per record (the rest of the record
// is padding that influences capacity, not behaviour).
//
// Every page carries a payload checksum, maintained incrementally on
// append (FNV-1a over the record values). The stored checksum is what a
// real page header would persist; the fault-injection read path verifies
// it to catch corrupted payloads, and the default (injector-less) read
// path skips verification so the hot path pays nothing.
//
// Every page also keeps its smallest and largest key (the zone map of
// columnar stores), widened by every mutation, so every value of every
// page, corrupted copies included, lies within min_key()..max_key(). A
// reader can fold a batch's key bounds over its pages before it touches a
// tuple.
//
// The payload stores each record as its unsigned offset from min_key()
// (frame-of-reference encoding), at the narrowest of 1, 2, 4 and 8 bytes
// that holds max_key() - min_key(). A mutation that lowers the minimum or
// widens the range re-encodes the page's slots in place; widths only grow.
// Only Page reads this format: callers decode the records (DecodeTo),
// count them into a key window (AddCounts) or read one slot (at).
class Page {
 public:
  explicit Page(std::uint32_t capacity) : capacity_(capacity) {}

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(payload_.size() >> shift_);
  }
  bool full() const { return size() >= capacity_; }
  bool empty() const { return payload_.empty(); }

  // Appends a record; returns false if the page is full.
  bool Append(Value value) {
    if (full()) return false;
    AppendAll(std::span<const Value>(&value, 1));
    return true;
  }

  // Appends `values` in order, with one fold of their bounds and one
  // encode. Precondition: values.size() <= capacity() - size().
  void AppendAll(std::span<const Value> values);

  // Record in slot `slot`. Precondition: slot < size().
  Value at(std::uint32_t slot) const {
    return static_cast<Value>(static_cast<std::uint64_t>(min_key_) +
                              LoadOffset(payload_.data(), shift_, slot));
  }

  // Writes the records to out[0, size()) in slot order. Precondition:
  // out.size() >= size().
  void DecodeTo(std::span<Value> out) const;

  // Adds one to window[v - base] for every record v: size() in one add
  // when the bounds show a single value (min_key() == max_key()).
  // Precondition: the window covers the page's bounds (base <= min_key()
  // and max_key() - base < window.size()).
  void AddCounts(Value base, std::span<std::uint64_t> window) const;

  // Prefetches every cache line of the payload.
  void Prefetch() const;

  // Bytes per stored offset: 1, 2, 4 or 8.
  std::uint32_t offset_width() const { return 1u << shift_; }

  // Bounds of the page's values. An empty page has min_key() > max_key().
  Value min_key() const { return min_key_; }
  Value max_key() const { return max_key_; }

  // The checksum recorded at write time.
  std::uint64_t checksum() const { return checksum_; }

  // Recomputes the checksum from the current payload. Differs from
  // checksum() iff the payload was altered after append.
  std::uint64_t ComputeChecksum() const;

  bool ChecksumOk() const { return ComputeChecksum() == checksum_; }

  // Flips bits of the value in `slot` *without* updating the stored
  // checksum — the corruption primitive the FaultInjector uses to produce
  // detectably damaged page copies. The key bounds widen to the new value,
  // re-encoding the page if they must. Precondition: slot < size().
  void CorruptValue(std::uint32_t slot, Value xor_mask);

 private:
  static std::uint64_t MixChecksum(std::uint64_t h, Value value) {
    // FNV-1a over the value's 8 bytes, low byte first.
    const auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      h = Fnv1aRound(h, static_cast<std::uint8_t>(bits >> (8 * i)));
    }
    return h;
  }

  // Calls fn with a zero of the offset type that `shift` selects: the one
  // branch on the width, taken once per page by the loops over records.
  template <typename Fn>
  static decltype(auto) WithOffsetType(std::uint8_t shift, Fn&& fn) {
    switch (shift) {
      case 0:
        return fn(std::uint8_t{0});
      case 1:
        return fn(std::uint16_t{0});
      case 2:
        return fn(std::uint32_t{0});
      default:
        return fn(std::uint64_t{0});
    }
  }

  // Offsets are copied in and out of the byte payload with memcpy, never
  // read through a cast pointer, which would break strict aliasing; the
  // copy compiles to one load or store of the offset's width.
  template <typename Offset>
  static std::uint64_t Load(const std::uint8_t* bytes, std::size_t slot) {
    Offset offset = 0;
    std::memcpy(&offset, bytes + slot * sizeof(Offset), sizeof(Offset));
    return offset;
  }

  template <typename Offset>
  static void Store(std::uint8_t* bytes, std::size_t slot,
                    std::uint64_t offset) {
    const auto narrow = static_cast<Offset>(offset);
    std::memcpy(bytes + slot * sizeof(Offset), &narrow, sizeof(Offset));
  }

  static std::uint64_t LoadOffset(const std::uint8_t* bytes,
                                  std::uint8_t shift, std::size_t slot) {
    return WithOffsetType(shift, [&](auto zero) {
      return Load<decltype(zero)>(bytes, slot);
    });
  }

  // Sets the bounds to [min, max], which hold the current ones, and sizes
  // the payload to `slots` records at the width their range needs,
  // re-encoding the current records if the base or the width changes.
  void Rebase(Value min, Value max, std::size_t slots);

  std::uint32_t capacity_;
  // log2 of the offset width in bytes.
  std::uint8_t shift_ = 0;
  std::uint64_t checksum_ = kFnv1aOffsetBasis;
  Value min_key_ = std::numeric_limits<Value>::max();
  Value max_key_ = std::numeric_limits<Value>::min();
  // size() offsets of 1 << shift_ bytes each.
  std::vector<std::uint8_t> payload_;
};

}  // namespace equihist

#endif  // EQUIHIST_STORAGE_PAGE_H_
