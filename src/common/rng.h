#ifndef EQUIHIST_COMMON_RNG_H_
#define EQUIHIST_COMMON_RNG_H_

#include <cstdint>
#include <initializer_list>
#include <limits>

namespace equihist {

// The SplitMix64 finalizer: a platform-stable bijective mix of x. Rng
// seeding and DeriveStreamSeed are built on it, and so is HashDecision.
std::uint64_t Mix64(std::uint64_t x);

// Fast, reproducible pseudo-random number generator (xoshiro256++ by
// Blackman & Vigna). Used throughout the library instead of std::mt19937_64:
// it is ~2x faster, has a tiny state, and — unlike the standard library
// distributions — all derived quantities (uniform ints, doubles) are
// bit-reproducible across platforms and standard library versions, which the
// test suite and the experiment harnesses rely on.
//
// Satisfies the C++ UniformRandomBitGenerator requirements, so it can also
// be plugged into <random> distributions where exact reproducibility does
// not matter.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the four 64-bit words of state from `seed` using splitmix64, as
  // recommended by the xoshiro authors: word i is Mix64(seed + i * the
  // golden-ratio increment), the first four outputs of a SplitMix64
  // stream. Any seed (including 0) is valid. Inline, so that a local
  // generator's address does not escape and its state stays in registers
  // through a loop of draws.
  explicit Rng(std::uint64_t seed = kGolden) {
    for (std::uint64_t i = 0; i < 4; ++i) s_[i] = Mix64(seed + i * kGolden);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  // Next raw 64 random bits. Inline, as NextBounded is: a shuffle of
  // every page id draws once per id (IncrementalBlockSampler).
  std::uint64_t Next() {
    const std::uint64_t result = RotL(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = RotL(s_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  // Uniform integer in [0, bound). Precondition: bound > 0.
  // Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t NextBounded(std::uint64_t bound) {
    using u128 = unsigned __int128;
    u128 m = static_cast<u128>(Next()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) {
      // Nearly divisionless: the threshold's division only runs when the
      // low word falls below bound, with probability bound / 2^64.
      const std::uint64_t threshold = -bound % bound;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<u128>(Next()) * bound;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  // Returns a new generator whose stream is independent of this one
  // (derived by jumping the state); handy for deterministic parallel or
  // per-component sub-streams.
  Rng Split();

 private:
  // The golden-ratio increment of SplitMix64's state.
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

  static std::uint64_t RotL(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// A hash of (seed, tag, ids...): Mix64 chained over the seed offset by the
// tag, then over each id in turn. The storage and link fault injectors
// draw every per-page or per-frame decision from it, so a decision is a
// pure function of the spec and the address, never of attempt order or
// thread interleaving.
std::uint64_t HashDecision(std::uint64_t seed, std::uint32_t tag,
                           std::initializer_list<std::uint64_t> ids);

// FNV-1a 64: a hash starts at the offset basis and folds in one byte per
// round. The column-name hash (HashColumnName), the transport envelope
// checksum (ChecksumBytes) and the page checksum (Page::MixChecksum) are
// this one core; each is pinned bit for bit by its own tests.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;

constexpr std::uint64_t Fnv1aRound(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 0x100000001B3ULL;
}

// Derives the seed of sub-stream `stream` of `seed` by SplitMix64 mixing,
// without consuming any state from an Rng. Seeding Rng(DeriveStreamSeed(s,
// i)) gives sub-stream i a statistically independent stream that depends
// only on (s, i) — how per-column build seeds and the backing reservoir's
// per-operation draws stay bit-reproducible whichever thread runs them.
std::uint64_t DeriveStreamSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace equihist

#endif  // EQUIHIST_COMMON_RNG_H_
