#include "leodivide/stats/percentile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace leodivide::stats {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("percentile_sorted: empty input");
  }
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile_sorted: p outside [0, 100]");
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  if (lo == hi) return sorted[lo];
  const double t = rank - static_cast<double>(lo);
  return sorted[lo] + t * (sorted[hi] - sorted[lo]);
}

double percentile(std::span<const double> values, double p) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, p);
}

}  // namespace leodivide::stats
