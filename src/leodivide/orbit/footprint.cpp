#include "leodivide/orbit/footprint.hpp"

#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/greatcircle.hpp"

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

double footprint_area_km2(double altitude_km, double min_elevation_deg) {
  return geo::spherical_cap_area_km2(
      coverage_central_angle_rad(altitude_km, min_elevation_deg));
}

double cells_in_footprint(double altitude_km, double min_elevation_deg,
                          double cell_area_km2) {
  if (cell_area_km2 <= 0.0) {
    throw std::invalid_argument("cells_in_footprint: cell area must be > 0");
  }
  return footprint_area_km2(altitude_km, min_elevation_deg) / cell_area_km2;
}

double edge_nadir_angle_rad(double altitude_km, double min_elevation_deg) {
  const double eps = geo::deg2rad(min_elevation_deg);
  const double ratio = geo::kEarthRadiusKm / (geo::kEarthRadiusKm + altitude_km);
  return std::asin(ratio * std::cos(eps));
}

}  // namespace leodivide::orbit
