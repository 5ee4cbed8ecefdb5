#include "leodivide/orbit/footprint.hpp"

#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

double coverage_central_angle_rad(double altitude_km,
                                  double min_elevation_deg) {
  if (!(altitude_km > 0.0)) {
    throw std::invalid_argument("coverage: altitude must be > 0");
  }
  if (!(min_elevation_deg >= 0.0 && min_elevation_deg < 90.0)) {
    throw std::invalid_argument("coverage: elevation mask outside [0, 90)");
  }
  const double eps = geo::deg2rad(min_elevation_deg);
  const double ratio = geo::kEarthRadiusKm / (geo::kEarthRadiusKm + altitude_km);
  // Standard geometry: psi = acos(ratio * cos eps) - eps.
  return std::acos(ratio * std::cos(eps)) - eps;
}

double footprint_radius_km(double altitude_km, double min_elevation_deg) {
  return geo::kEarthRadiusKm *
         coverage_central_angle_rad(altitude_km, min_elevation_deg);
}

}  // namespace leodivide::orbit
