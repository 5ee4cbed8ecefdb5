#include "leodivide/stats/interpolate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leodivide::stats {

namespace {
// Positive floor used so that log-linear interpolation tolerates zero-valued
// anchors (e.g. "0 locations" at p = 0).
constexpr double kLogFloor = 1e-9;

double safe_log(double v) { return std::log(std::max(v, kLogFloor)); }
}  // namespace

PiecewiseQuantile::PiecewiseQuantile(std::vector<QuantileAnchor> anchors)
    : anchors_(std::move(anchors)) {
  if (anchors_.size() < 2) {
    throw std::invalid_argument("PiecewiseQuantile: need >= 2 anchors");
  }
  std::sort(anchors_.begin(), anchors_.end(),
            [](const QuantileAnchor& a, const QuantileAnchor& b) {
              return a.p < b.p;
            });
  for (std::size_t i = 0; i < anchors_.size(); ++i) {
    const auto& a = anchors_[i];
    if (a.p < 0.0 || a.p > 1.0 || a.value < 0.0) {
      throw std::invalid_argument("PiecewiseQuantile: anchor out of range");
    }
    if (i > 0) {
      if (a.p <= anchors_[i - 1].p) {
        throw std::invalid_argument(
            "PiecewiseQuantile: duplicate anchor probability");
      }
      if (a.value < anchors_[i - 1].value) {
        throw std::invalid_argument(
            "PiecewiseQuantile: values must be non-decreasing");
      }
    }
    log_values_.push_back(safe_log(a.value));
  }
}

double PiecewiseQuantile::operator()(double p) const {
  if (p <= anchors_.front().p) return anchors_.front().value;
  if (p >= anchors_.back().p) return anchors_.back().value;
  const auto it = std::upper_bound(
      anchors_.begin(), anchors_.end(), p,
      [](double pp, const QuantileAnchor& a) { return pp < a.p; });
  const auto hi = static_cast<std::size_t>(it - anchors_.begin());
  const auto lo = hi - 1;
  const double t = (p - anchors_[lo].p) / (anchors_[hi].p - anchors_[lo].p);
  const double lv =
      log_values_[lo] + t * (log_values_[hi] - log_values_[lo]);
  const double v = std::exp(lv);
  return v < 2.0 * kLogFloor ? 0.0 : v;
}

double PiecewiseQuantile::mean(std::size_t steps) const {
  if (steps == 0) throw std::invalid_argument("mean: steps must be > 0");
  double acc = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / static_cast<double>(steps);
    acc += (*this)(p);
  }
  return acc / static_cast<double>(steps);
}

}  // namespace leodivide::stats
