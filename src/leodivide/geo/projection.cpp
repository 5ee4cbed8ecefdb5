#include "leodivide/geo/projection.hpp"

#include <algorithm>
#include <cmath>

#include "leodivide/geo/angle.hpp"

namespace leodivide::geo {

AzimuthalEquidistant::AzimuthalEquidistant(const GeoPoint& center)
    : center_(center.normalized()),
      sin_lat0_(std::sin(deg2rad(center_.lat_deg))),
      cos_lat0_(std::cos(deg2rad(center_.lat_deg))),
      lon0_rad_(deg2rad(center_.lon_deg)) {}

PlanePoint AzimuthalEquidistant::forward(const GeoPoint& p) const {
  const double lat = deg2rad(p.lat_deg);
  const double dlon = deg2rad(p.lon_deg) - lon0_rad_;
  const double cos_c = std::clamp(
      sin_lat0_ * std::sin(lat) + cos_lat0_ * std::cos(lat) * std::cos(dlon),
      -1.0, 1.0);
  const double c = std::acos(cos_c);
  if (c < 1e-12) return {0.0, 0.0};
  const double k = kEarthRadiusKm * c / std::sin(c);
  return {k * std::cos(lat) * std::sin(dlon),
          k * (cos_lat0_ * std::sin(lat) -
               sin_lat0_ * std::cos(lat) * std::cos(dlon))};
}

GeoPoint AzimuthalEquidistant::inverse(const PlanePoint& q) const {
  const double rho = std::hypot(q.x, q.y);
  if (rho < 1e-9) return center_;
  const double c = rho / kEarthRadiusKm;
  const double sin_c = std::sin(c);
  const double cos_c = std::cos(c);
  const double lat = std::asin(std::clamp(
      cos_c * sin_lat0_ + q.y * sin_c * cos_lat0_ / rho, -1.0, 1.0));
  const double lon =
      lon0_rad_ + std::atan2(q.x * sin_c,
                             rho * cos_lat0_ * cos_c - q.y * sin_lat0_ * sin_c);
  return GeoPoint{rad2deg(lat), rad2deg(lon)}.normalized();
}

}  // namespace leodivide::geo
