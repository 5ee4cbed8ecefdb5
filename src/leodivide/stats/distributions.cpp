#include "leodivide/stats/distributions.hpp"

#include <stdexcept>

namespace leodivide::stats {

double sample_uniform(Pcg32& rng, double lo, double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("sample_uniform: lo > hi");
  return lo + (hi - lo) * rng.next_double();
}

}  // namespace leodivide::stats
