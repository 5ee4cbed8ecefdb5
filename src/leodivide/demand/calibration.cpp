#include "leodivide/demand/calibration.hpp"

#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"
#include "leodivide/demand/location.hpp"

namespace leodivide::demand::paper {

double binding_latitude_for_k(double k, double cell_area_km2,
                              double inclination_deg) {
  if (k <= 0.0 || cell_area_km2 <= 0.0) {
    throw std::invalid_argument("binding_latitude_for_k: non-positive input");
  }
  const double r2 = geo::kEarthRadiusKm * geo::kEarthRadiusKm;
  const double term =
      k * cell_area_km2 / (2.0 * geo::kPi * geo::kPi * r2);
  const double si = std::sin(geo::deg2rad(inclination_deg));
  const double sin2_phi = si * si - term * term;
  if (sin2_phi < 0.0) {
    throw std::domain_error(
        "binding_latitude_for_k: K unreachable at this inclination");
  }
  return geo::rad2deg(std::asin(std::sqrt(sin2_phi)));
}

stats::PiecewiseQuantile cell_count_quantile() {
  return stats::PiecewiseQuantile{{
      {0.00, 1.0},
      {0.36, 62.0},
      {0.90, kPerCellP90},
      {0.99, kPerCellP99},
      {1.00, 3400.0},
  }};
}

stats::PiecewiseQuantile income_quantile() {
  return stats::PiecewiseQuantile{{
      {0.0, kMinCountyIncomeUsd},
      // F4: comparable plans (Spectrum $50/mo -> $30,000 threshold) are
      // affordable for > 99.99% of locations, so at most 0.01% of the
      // location-weighted mass sits below $30,000.
      {0.0001, 30'000.0},
      {kFractionBelowLifelineThreshold, 66'450.0},
      {kFractionBelowStarlinkThreshold, 72'000.0},
      {1.0, kMaxCountyIncomeUsd},
  }};
}

}  // namespace leodivide::demand::paper
