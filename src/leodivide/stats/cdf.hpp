#pragma once
// Empirical cumulative distribution functions, both unweighted (Fig 1 right
// panel) and weighted (Fig 4, where each county's income is weighted by its
// number of un(der)served locations).

#include <span>
#include <vector>

namespace leodivide::stats {

/// Empirical CDF over unweighted samples.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::span<const double> samples);

  /// F(x): fraction of samples <= x.
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] double max() const { return sorted_.back(); }

 private:
  std::vector<double> sorted_;
};

/// Empirical CDF over weighted samples (value, weight >= 0).
class WeightedCdf {
 public:
  WeightedCdf(std::span<const double> values, std::span<const double> weights);

  /// Total weight of samples <= x (unnormalised) — e.g. "number of locations
  /// unable to afford" is total_weight() - weight_at_most(threshold).
  [[nodiscard]] double weight_at_most(double x) const;

  /// Smallest value v such that weight_at_most(v) >= p * total_weight().
  [[nodiscard]] double quantile(double p) const;

  [[nodiscard]] double total_weight() const { return total_; }
  [[nodiscard]] double min() const { return values_.front(); }

 private:
  std::vector<double> values_;   // sorted ascending
  std::vector<double> cumsum_;   // cumulative weight aligned with values_
  double total_ = 0.0;
};

}  // namespace leodivide::stats
