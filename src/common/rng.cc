#include "common/rng.h"

namespace equihist {
namespace {

// The golden-ratio increment of SplitMix64's state.
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

}  // namespace

std::uint64_t Mix64(std::uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t HashDecision(std::uint64_t seed, std::uint32_t tag,
                           std::initializer_list<std::uint64_t> ids) {
  std::uint64_t h = Mix64(seed ^ (0xA0761D6478BD642FULL + tag));
  for (const std::uint64_t id : ids) h = Mix64(h ^ id);
  return h;
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t offset = (span == 0) ? Next() : NextBounded(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) on the 2^-53 grid.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::uint64_t DeriveStreamSeed(std::uint64_t seed, std::uint64_t stream) {
  // Decorrelate the stream index with the golden-ratio increment, then
  // take the second output of a SplitMix64 stream from there, so adjacent
  // (seed, stream) pairs land far apart.
  return Mix64((seed ^ (kGolden * (stream + 1))) + kGolden);
}

Rng Rng::Split() {
  // Derive the child from fresh output, then advance this stream once more
  // so parent and child do not overlap in practice.
  const std::uint64_t child_seed = Next() ^ 0xA3EC647659359ACDULL;
  Next();
  return Rng(child_seed);
}

}  // namespace equihist
