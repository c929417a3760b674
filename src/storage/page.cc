#include "storage/page.h"

#include <algorithm>
#include <cassert>

namespace equihist {
namespace {

// log2 of the narrowest offset width, in bytes, that holds `range`.
std::uint8_t ShiftFor(std::uint64_t range) {
  if (range <= std::numeric_limits<std::uint8_t>::max()) return 0;
  if (range <= std::numeric_limits<std::uint16_t>::max()) return 1;
  if (range <= std::numeric_limits<std::uint32_t>::max()) return 2;
  return 3;
}

}  // namespace

Status ValidatePageConfig(const PageConfig& config) {
  if (config.page_size_bytes == 0) {
    return Status::InvalidArgument("page_size_bytes must be positive");
  }
  if (config.record_size_bytes == 0) {
    return Status::InvalidArgument("record_size_bytes must be positive");
  }
  if (config.record_size_bytes > config.page_size_bytes) {
    return Status::InvalidArgument(
        "record_size_bytes must not exceed page_size_bytes");
  }
  return Status::OK();
}

void Page::AppendAll(std::span<const Value> values) {
  assert(values.size() <= capacity_ - size());
  if (values.empty()) return;
  Value min = min_key_;
  Value max = max_key_;
  for (const Value v : values) {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  const std::size_t first = size();
  Rebase(min, max, first + values.size());
  std::uint8_t* bytes = payload_.data();
  const auto base = static_cast<std::uint64_t>(min_key_);
  WithOffsetType(shift_, [&](auto zero) {
    using Offset = decltype(zero);
    for (std::size_t i = 0; i < values.size(); ++i) {
      Store<Offset>(bytes, first + i,
                    static_cast<std::uint64_t>(values[i]) - base);
    }
  });
  for (const Value v : values) checksum_ = MixChecksum(checksum_, v);
}

void Page::DecodeTo(std::span<Value> out) const {
  const std::size_t n = size();
  assert(out.size() >= n);
  const std::uint8_t* bytes = payload_.data();
  const auto base = static_cast<std::uint64_t>(min_key_);
  Value* values = out.data();
  WithOffsetType(shift_, [&](auto zero) {
    using Offset = decltype(zero);
    for (std::size_t slot = 0; slot < n; ++slot) {
      values[slot] = static_cast<Value>(base + Load<Offset>(bytes, slot));
    }
  });
}

void Page::AddCounts(Value base, std::span<std::uint64_t> window) const {
  if (empty()) return;
  const std::uint64_t first =
      static_cast<std::uint64_t>(min_key_) - static_cast<std::uint64_t>(base);
  assert(first + (static_cast<std::uint64_t>(max_key_) -
                  static_cast<std::uint64_t>(min_key_)) <
         window.size());
  std::uint64_t* counts = window.data() + first;
  const std::size_t n = size();
  if (min_key_ == max_key_) {
    // Every record is min_key(): one add instead of n increments of one
    // counter, each waiting on the last.
    counts[0] += n;
    return;
  }
  const std::uint8_t* bytes = payload_.data();
  WithOffsetType(shift_, [&](auto zero) {
    using Offset = decltype(zero);
    for (std::size_t slot = 0; slot < n; ++slot) {
      ++counts[Load<Offset>(bytes, slot)];
    }
  });
}

void Page::Prefetch() const {
  if (payload_.empty()) return;
  const std::uint8_t* bytes = payload_.data();
  constexpr std::size_t kLine = 64;
  for (std::size_t i = 0; i < payload_.size(); i += kLine) {
    __builtin_prefetch(bytes + i);
  }
  // The payload need not start on a line, so its tail may sit on one more.
  __builtin_prefetch(bytes + payload_.size() - 1);
}

std::uint64_t Page::ComputeChecksum() const {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (std::uint32_t slot = 0; slot < size(); ++slot) {
    h = MixChecksum(h, at(slot));
  }
  return h;
}

void Page::CorruptValue(std::uint32_t slot, Value xor_mask) {
  const Value value = at(slot) ^ xor_mask;
  Rebase(std::min(min_key_, value), std::max(max_key_, value), size());
  WithOffsetType(shift_, [&](auto zero) {
    Store<decltype(zero)>(payload_.data(), slot,
                          static_cast<std::uint64_t>(value) -
                              static_cast<std::uint64_t>(min_key_));
  });
}

void Page::Rebase(Value min, Value max, std::size_t slots) {
  const std::uint8_t shift = ShiftFor(static_cast<std::uint64_t>(max) -
                                      static_cast<std::uint64_t>(min));
  const std::size_t records = size();
  const std::uint8_t old_shift = shift_;
  // The records' offsets grow by what the base fell. The new width is at
  // least the old one, so walking the slots from the last down overwrites
  // only slots already re-encoded.
  const std::uint64_t delta = static_cast<std::uint64_t>(min_key_) -
                              static_cast<std::uint64_t>(min);
  payload_.resize(slots << shift);
  if (records > 0 && (delta != 0 || shift != old_shift)) {
    std::uint8_t* bytes = payload_.data();
    WithOffsetType(shift, [&](auto zero) {
      using Offset = decltype(zero);
      for (std::size_t slot = records; slot-- > 0;) {
        Store<Offset>(bytes, slot, LoadOffset(bytes, old_shift, slot) + delta);
      }
    });
  }
  shift_ = shift;
  min_key_ = min;
  max_key_ = max;
}

}  // namespace equihist
