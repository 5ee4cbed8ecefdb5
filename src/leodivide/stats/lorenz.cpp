#include "leodivide/stats/lorenz.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "leodivide/stats/summary.hpp"

namespace leodivide::stats {

namespace {

std::vector<double> sorted_nonnegative(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("lorenz: empty input");
  std::vector<double> sorted(values.begin(), values.end());
  for (double v : sorted) {
    if (v < 0.0) throw std::invalid_argument("lorenz: negative value");
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

double gini(std::span<const double> values) {
  const auto sorted = sorted_nonnegative(values);
  const double n = static_cast<double>(sorted.size());
  KahanSum weighted, total;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    weighted.add((2.0 * static_cast<double>(i + 1) - n - 1.0) * sorted[i]);
    total.add(sorted[i]);
  }
  if (total.value() <= 0.0) {
    throw std::invalid_argument("gini: all values are zero");
  }
  return weighted.value() / (n * total.value());
}

double top_share(std::span<const double> values, double fraction) {
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument("top_share: fraction outside (0, 1]");
  }
  const auto sorted = sorted_nonnegative(values);
  double total = 0.0;
  for (double v : sorted) total += v;
  if (total <= 0.0) throw std::invalid_argument("top_share: all zero");
  const auto top_n = static_cast<std::size_t>(std::max(
      1.0, std::ceil(fraction * static_cast<double>(sorted.size()))));
  double top = 0.0;
  for (std::size_t i = sorted.size() - top_n; i < sorted.size(); ++i) {
    top += sorted[i];
  }
  return top / total;
}

}  // namespace leodivide::stats
