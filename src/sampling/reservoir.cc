#include "sampling/reservoir.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "stats/wire_format.h"

namespace equihist {
namespace {

// Domain separator mixed into delete-side draws so an insert and a delete
// at the same op index never share a stream.
constexpr std::uint64_t kDeleteStreamSalt = 0xD417E5A1B2C3D4E5ULL;

// Deserialization plausibility cap: a reservoir is an in-memory sample, so
// a capacity claiming more than 2^26 (~64M) values is corruption, not data.
constexpr std::uint64_t kMaxPlausibleCapacity = 1ULL << 26;

}  // namespace

Result<BackingReservoir> BackingReservoir::Create(std::uint64_t capacity,
                                                  std::uint64_t seed) {
  if (capacity == 0) {
    return Status::InvalidArgument("reservoir capacity must be positive");
  }
  return BackingReservoir(capacity, seed);
}

std::uint64_t BackingReservoir::NextOpStream() { return ops_++; }

Status BackingReservoir::SeedFromSample(std::span<const Value> sample,
                                        std::uint64_t population) {
  if (sample.size() > population) {
    return Status::InvalidArgument(
        "backing sample claims more rows than the population");
  }
  reservoir_.assign(sample.begin(), sample.end());
  if (reservoir_.size() > capacity_) {
    // Deterministic partial Fisher-Yates: after i steps the prefix [0, i)
    // is a uniform without-replacement sample of the input, so keeping the
    // first `capacity_` elements keeps a uniform subset.
    Rng rng(DeriveStreamSeed(seed_, NextOpStream()));
    for (std::size_t i = 0; i < capacity_; ++i) {
      const std::uint64_t j =
          i + rng.NextBounded(reservoir_.size() - i);
      std::swap(reservoir_[i], reservoir_[j]);
    }
    reservoir_.resize(capacity_);
  }
  population_ = population;
  seen_ = population;
  ops_since_seed_ = 0;
  delete_hits_ = 0;
  delete_misses_ = 0;
  return Status::OK();
}

void BackingReservoir::Add(Value value) {
  ++population_;
  ++seen_;
  ++ops_since_seed_;
  const std::uint64_t stream = NextOpStream();
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(value);
    return;
  }
  // Algorithm R against the live population: the arriving row lands in the
  // reservoir with probability size / population.
  Rng rng(DeriveStreamSeed(seed_, stream));
  const std::uint64_t j = rng.NextBounded(population_);
  if (j < reservoir_.size()) reservoir_[j] = value;
}

bool BackingReservoir::Delete(Value value) {
  ++ops_since_seed_;
  const std::uint64_t stream = NextOpStream();
  if (population_ == 0) {
    // A delete against an empty population is drift by definition.
    ++delete_misses_;
    return false;
  }
  const std::uint64_t population_before = population_;
  --population_;
  if (reservoir_.empty()) return false;
  Rng rng(DeriveStreamSeed(seed_ ^ kDeleteStreamSalt, stream));
  // Counted replacement: the deleted row occupied a reservoir slot with
  // probability size / population. When the draw misses, the reservoir is
  // untouched (the deleted row was one of the unsampled rows).
  if (rng.NextBounded(population_before) >= reservoir_.size()) {
    // The invariant size <= population must survive even unsampled
    // deletes near exhaustion.
    if (reservoir_.size() > population_) reservoir_.pop_back();
    return false;
  }
  // The slot held the deleted row, so it held `value`. Vacate one matching
  // slot, chosen uniformly among duplicates so repeated deletes of a heavy
  // value do not always drain the same region of the reservoir.
  std::uint64_t matches = 0;
  for (const Value v : reservoir_) matches += (v == value) ? 1 : 0;
  if (matches == 0) {
    // The sample cannot supply the value: the reservoir has drifted from
    // the table (or the caller reported a delete that never happened).
    ++delete_misses_;
    if (reservoir_.size() > population_) reservoir_.pop_back();
    return false;
  }
  std::uint64_t target = rng.NextBounded(matches);
  for (std::size_t i = 0; i < reservoir_.size(); ++i) {
    if (reservoir_[i] != value) continue;
    if (target-- == 0) {
      reservoir_[i] = reservoir_.back();
      reservoir_.pop_back();
      break;
    }
  }
  ++delete_hits_;
  return true;
}

double BackingReservoir::fill_fraction() const {
  const std::uint64_t want = std::min(capacity_, population_);
  if (want == 0) return 1.0;
  return static_cast<double>(reservoir_.size()) / static_cast<double>(want);
}

std::vector<Value> BackingReservoir::SortedSample() const {
  std::vector<Value> sorted = reservoir_;
  ParallelSort(sorted, nullptr);
  return sorted;
}

void BackingReservoir::SerializeTo(std::vector<std::uint8_t>* out) const {
  wire::PutVarint(capacity_, out);
  wire::PutVarint(seed_, out);
  wire::PutVarint(population_, out);
  wire::PutVarint(seen_, out);
  wire::PutVarint(ops_, out);
  wire::PutVarint(ops_since_seed_, out);
  wire::PutVarint(delete_hits_, out);
  wire::PutVarint(delete_misses_, out);
  wire::PutVarint(reservoir_.size(), out);
  for (const Value v : reservoir_) wire::PutSigned(v, out);
}

Result<BackingReservoir> BackingReservoir::Deserialize(
    std::span<const std::uint8_t> bytes, std::size_t* consumed) {
  wire::Reader reader(bytes);
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t capacity, reader.Varint());
  if (capacity == 0 || capacity > kMaxPlausibleCapacity) {
    return Status::InvalidArgument("implausible reservoir capacity");
  }
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t seed, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t population, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t seen, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t ops, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t ops_since_seed,
                            reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t delete_hits, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t delete_misses,
                            reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t size,
                            reader.LengthPrefixedCount());
  if (size > capacity) {
    return Status::InvalidArgument("reservoir size exceeds its capacity");
  }
  if (size > population) {
    return Status::InvalidArgument("reservoir size exceeds its population");
  }
  if (ops_since_seed > ops) {
    return Status::InvalidArgument(
        "reservoir op counters are mutually inconsistent");
  }
  BackingReservoir reservoir(capacity, seed);
  reservoir.population_ = population;
  reservoir.seen_ = seen;
  reservoir.ops_ = ops;
  reservoir.ops_since_seed_ = ops_since_seed;
  reservoir.delete_hits_ = delete_hits;
  reservoir.delete_misses_ = delete_misses;
  reservoir.reservoir_.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    EQUIHIST_ASSIGN_OR_RETURN(const std::int64_t v, reader.Signed());
    reservoir.reservoir_.push_back(v);
  }
  if (consumed != nullptr) *consumed = reader.position();
  return reservoir;
}

}  // namespace equihist
