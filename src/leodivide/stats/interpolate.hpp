#pragma once
// Monotone piecewise quantile functions, used to calibrate synthetic demand
// and income distributions against the statistics published in the paper.

#include <cstddef>
#include <span>
#include <vector>

namespace leodivide::stats {

/// One (probability, value) anchor of a piecewise quantile function.
struct QuantileAnchor {
  double p;      ///< cumulative probability in [0, 1]
  double value;  ///< quantile value at p (must be non-decreasing in p)
};

/// A monotone piecewise quantile function Q(p) defined by anchors, with
/// geometric (log-linear) interpolation between anchors. Log-linear
/// interpolation is the natural choice for heavy-tailed positive variables
/// such as "un(der)served locations per cell" or "county median income":
/// straight lines in (p, log value) space reproduce the long-tail shape the
/// paper's Figure 1 exhibits while passing exactly through every published
/// percentile.
class PiecewiseQuantile {
 public:
  /// Builds the function from anchors. Anchors are sorted by probability;
  /// throws std::invalid_argument if fewer than two anchors are given, if
  /// probabilities fall outside [0,1] or repeat, or if values are negative
  /// or decreasing.
  explicit PiecewiseQuantile(std::vector<QuantileAnchor> anchors);

  /// Evaluates Q(p); p is clamped to [p_min, p_max] of the anchors.
  [[nodiscard]] double operator()(double p) const;

  /// Mean of the distribution, integrated numerically over `steps` equal
  /// probability slices (midpoint rule).
  [[nodiscard]] double mean(std::size_t steps = 20000) const;

  [[nodiscard]] const std::vector<QuantileAnchor>& anchors() const {
    return anchors_;
  }

 private:
  std::vector<QuantileAnchor> anchors_;
  /// log(max(value, floor)) of each anchor, in anchor order.
  std::vector<double> log_values_;
};

}  // namespace leodivide::stats
