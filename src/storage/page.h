#ifndef EQUIHIST_STORAGE_PAGE_H_
#define EQUIHIST_STORAGE_PAGE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/result.h"
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
class Page {
 public:
  explicit Page(std::uint32_t capacity) : capacity_(capacity) {
    values_.reserve(capacity);
  }

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(values_.size()); }
  bool full() const { return size() >= capacity_; }
  bool empty() const { return values_.empty(); }

  // Appends a record; returns false if the page is full.
  bool Append(Value value) {
    if (full()) return false;
    values_.push_back(value);
    checksum_ = MixChecksum(checksum_, value);
    Widen(value);
    return true;
  }

  // Record in slot `slot`. Precondition: slot < size().
  Value at(std::uint32_t slot) const { return values_[slot]; }

  std::span<const Value> values() const { return values_; }

  // Bounds of the page's values. An empty page has min_key() > max_key().
  Value min_key() const { return min_key_; }
  Value max_key() const { return max_key_; }

  // The checksum recorded at write time.
  std::uint64_t checksum() const { return checksum_; }

  // Recomputes the checksum from the current payload. Differs from
  // checksum() iff the payload was altered after append.
  std::uint64_t ComputeChecksum() const {
    std::uint64_t h = kChecksumSeed;
    for (const Value v : values_) h = MixChecksum(h, v);
    return h;
  }

  bool ChecksumOk() const { return ComputeChecksum() == checksum_; }

  // Flips bits of the value in `slot` *without* updating the stored
  // checksum — the corruption primitive the FaultInjector uses to produce
  // detectably damaged page copies. The key bounds widen to the new value.
  // Precondition: slot < size().
  void CorruptValue(std::uint32_t slot, Value xor_mask) {
    values_[slot] ^= xor_mask;
    Widen(values_[slot]);
  }

 private:
  static constexpr std::uint64_t kChecksumSeed = 0xCBF29CE484222325ULL;

  static std::uint64_t MixChecksum(std::uint64_t h, Value value) {
    // FNV-1a over the value's 8 bytes, one round per byte.
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
    return h;
  }

  void Widen(Value value) {
    min_key_ = std::min(min_key_, value);
    max_key_ = std::max(max_key_, value);
  }

  std::uint32_t capacity_;
  std::uint64_t checksum_ = kChecksumSeed;
  Value min_key_ = std::numeric_limits<Value>::max();
  Value max_key_ = std::numeric_limits<Value>::min();
  std::vector<Value> values_;
};

}  // namespace equihist

#endif  // EQUIHIST_STORAGE_PAGE_H_
