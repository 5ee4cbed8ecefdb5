#include "leodivide/stats/cdf.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace leodivide::stats {

EmpiricalCdf::EmpiricalCdf(std::span<const double> samples)
    : sorted_(samples.begin(), samples.end()) {
  if (sorted_.empty()) throw std::invalid_argument("EmpiricalCdf: empty");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::operator()(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

WeightedCdf::WeightedCdf(std::span<const double> values,
                         std::span<const double> weights) {
  if (values.size() != weights.size() || values.empty()) {
    throw std::invalid_argument("WeightedCdf: mismatched or empty inputs");
  }
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  values_.reserve(values.size());
  cumsum_.reserve(values.size());
  double running = 0.0;
  for (std::size_t i : order) {
    if (weights[i] < 0.0) {
      throw std::invalid_argument("WeightedCdf: negative weight");
    }
    running += weights[i];
    values_.push_back(values[i]);
    cumsum_.push_back(running);
  }
  total_ = running;
  if (total_ <= 0.0) throw std::invalid_argument("WeightedCdf: zero weight");
}

double WeightedCdf::weight_at_most(double x) const {
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  if (it == values_.begin()) return 0.0;
  return cumsum_[static_cast<std::size_t>(it - values_.begin()) - 1];
}

double WeightedCdf::quantile(double p) const {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("quantile: p not in [0,1]");
  const double target = p * total_;
  const auto it = std::lower_bound(cumsum_.begin(), cumsum_.end(), target);
  if (it == cumsum_.end()) return values_.back();
  return values_[static_cast<std::size_t>(it - cumsum_.begin())];
}

}  // namespace leodivide::stats
