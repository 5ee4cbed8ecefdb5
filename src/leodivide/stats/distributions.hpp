#pragma once
// The uniform sampler the demand generator draws from. It takes an explicit
// Pcg32 so sampling is deterministic and thread-confined.

#include "leodivide/stats/rng.hpp"

namespace leodivide::stats {

/// Uniform double in [lo, hi).
[[nodiscard]] double sample_uniform(Pcg32& rng, double lo, double hi);

}  // namespace leodivide::stats
