#ifndef EQUIHIST_SAMPLING_ROW_SAMPLER_H_
#define EQUIHIST_SAMPLING_ROW_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/distribution.h"

namespace equihist {

// Record-level (tuple-level) samplers over an in-memory column: the
// Section 3 model. Sampling is uniform over tuples, ignoring page
// boundaries; over a paged table it would charge a page read per tuple,
// the "prohibitively expensive" access path the paper warns about, so the
// statistics pipeline samples blocks with CVB instead.

// r tuples uniformly with replacement from `values` (the paper's default
// analysis model, binomial tails).
std::vector<Value> SampleRowsWithReplacement(std::span<const Value> values,
                                             std::uint64_t r, Rng& rng);

// r tuples uniformly without replacement (hypergeometric model). Returns
// InvalidArgument if r exceeds values.size(). Uses Floyd's algorithm for
// small r and sequential (Vitter Algorithm S style) selection for large r.
Result<std::vector<Value>> SampleRowsWithoutReplacement(
    std::span<const Value> values, std::uint64_t r, Rng& rng);

// Bernoulli sample: each tuple included independently with probability p in
// [0, 1]. Sample size is binomially distributed around p * n.
Result<std::vector<Value>> SampleRowsBernoulli(std::span<const Value> values,
                                               double p, Rng& rng);

}  // namespace equihist

#endif  // EQUIHIST_SAMPLING_ROW_SAMPLER_H_
