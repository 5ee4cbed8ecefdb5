#include "leodivide/geo/greatcircle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::geo {

double central_angle_rad(const GeoPoint& a, const GeoPoint& b) {
  const double lat1 = deg2rad(a.lat_deg);
  const double lat2 = deg2rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg2rad(b.lon_deg - a.lon_deg);
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * std::asin(std::min(1.0, std::sqrt(h)));
}

double distance_km(const GeoPoint& a, const GeoPoint& b) {
  return kEarthRadiusKm * central_angle_rad(a, b);
}

double latitude_band_fraction(double lat_lo_deg, double lat_hi_deg) {
  if (lat_lo_deg > lat_hi_deg) {
    throw std::invalid_argument("latitude_band_fraction: lo > hi");
  }
  const double lo = std::clamp(lat_lo_deg, -90.0, 90.0);
  const double hi = std::clamp(lat_hi_deg, -90.0, 90.0);
  return (std::sin(deg2rad(hi)) - std::sin(deg2rad(lo))) / 2.0;
}

}  // namespace leodivide::geo
