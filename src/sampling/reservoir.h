#ifndef EQUIHIST_SAMPLING_RESERVOIR_H_
#define EQUIHIST_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "data/distribution.h"

namespace equihist {

// The persistent per-column backing sample of the incremental maintenance
// subsystem (DESIGN.md §15), and the library's one reservoir sampler. It
// is *kept*: seeded from the build's CVB block sample at first build (or
// from the whole column on a full scan), maintained under the column's
// insert/delete stream, serialized alongside the histogram so a restored
// column resumes warm, and consulted by the incremental equi-depth backend
// for bucket split/merge quantiles.
//
// Uniformity. Inserts follow Vitter's Algorithm R against the *live*
// population count: the arriving row enters a full reservoir with
// probability capacity / population. Deletes use counted replacement (the
// GMP backing-sample rule): the deleted row was in the reservoir with
// probability size / population, so a Bernoulli draw at that rate decides
// whether a slot is vacated; a vacated slot is NOT refilled — refilling
// would need a table read this subsystem exists to avoid — so sustained
// deletes decay the fill fraction, and the caller falls back to a full
// rebuild (reseeding the reservoir) once fill drops below its budget. A
// delete whose value the reservoir cannot supply is counted as a miss:
// evidence that the sample and the table have drifted apart.
//
// Determinism. Every randomized decision draws from a fresh Rng seeded with
// DeriveStreamSeed(seed, op_index) — the SplitMix addressing scheme
// per-column build seeds use too. The reservoir's state is therefore a pure
// function of (seed, operation sequence): independent of thread counts,
// timing, or how many other columns the owning manager maintains, and
// trivially serializable (seed + op counter, no RNG state).
class BackingReservoir {
 public:
  // Capacity must be positive. Any seed is valid.
  static Result<BackingReservoir> Create(std::uint64_t capacity,
                                         std::uint64_t seed);

  // Replaces the current contents with a uniform sample of a population of
  // `population` rows — the first-build seeding path. When the sample is
  // larger than the capacity, a deterministic partial Fisher-Yates pass
  // keeps a uniform capacity-sized subset. InvalidArgument when the sample
  // claims more rows than the population.
  Status SeedFromSample(std::span<const Value> sample,
                        std::uint64_t population);

  // One inserted row (Algorithm R against the live population).
  void Add(Value value);

  // One deleted row with value `value` (counted replacement; see above).
  // Returns true when a reservoir slot was vacated.
  bool Delete(Value value);

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t size() const { return reservoir_.size(); }
  // Live population estimate: rows represented by this reservoir.
  std::uint64_t population() const { return population_; }
  // Rows streamed through Add plus rows represented at seeding.
  std::uint64_t seen() const { return seen_; }
  // Operations applied since seeding (inserts + deletes) — the Δ the
  // repair-budget check compares against the population.
  std::uint64_t ops_since_seed() const { return ops_since_seed_; }
  // Deletes that vacated a slot / that should have but found no matching
  // value (drift evidence).
  std::uint64_t delete_hits() const { return delete_hits_; }
  std::uint64_t delete_misses() const { return delete_misses_; }

  // size() / min(capacity, population): 1.0 for a healthy reservoir,
  // decaying under sustained deletes. 1.0 when the population is empty.
  double fill_fraction() const;

  // The current sample, in reservoir order (the order is load-bearing for
  // determinism of future operations; sort a copy for quantile work).
  const std::vector<Value>& sample() const { return reservoir_; }
  std::vector<Value> SortedSample() const;

  // Wire codec (stats/wire_format.h dialect): varint capacity | varint
  // seed | varint population | varint seen | varint ops | varint
  // delete_hits | varint delete_misses | varint size | size zigzag values.
  // Everything is validated on the way in — corrupted bytes yield Status,
  // never UB.
  void SerializeTo(std::vector<std::uint8_t>* out) const;
  static Result<BackingReservoir> Deserialize(
      std::span<const std::uint8_t> bytes, std::size_t* consumed = nullptr);

 private:
  BackingReservoir(std::uint64_t capacity, std::uint64_t seed)
      : capacity_(capacity), seed_(seed) {}

  // The per-operation RNG stream index, advanced by every Add/Delete.
  std::uint64_t NextOpStream();

  std::uint64_t capacity_;
  std::uint64_t seed_;
  std::uint64_t population_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t ops_ = 0;  // lifetime op counter: the RNG stream address
  std::uint64_t ops_since_seed_ = 0;
  std::uint64_t delete_hits_ = 0;
  std::uint64_t delete_misses_ = 0;
  std::vector<Value> reservoir_;
};

}  // namespace equihist

#endif  // EQUIHIST_SAMPLING_RESERVOIR_H_
