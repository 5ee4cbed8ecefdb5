#include "leodivide/geo/ecef.hpp"

#include <cmath>
#include <stdexcept>

#include "leodivide/geo/angle.hpp"

namespace leodivide::geo {

double Vec3::norm() const noexcept { return std::sqrt(x * x + y * y + z * z); }

double Vec3::dot(const Vec3& o) const noexcept {
  return x * o.x + y * o.y + z * o.z;
}

Vec3 Vec3::unit() const {
  const double n = norm();
  // leolint:allow(float-eq): exact-zero guard before dividing by norm
  if (n == 0.0) throw std::domain_error("Vec3::unit: zero vector");
  return {x / n, y / n, z / n};
}

Vec3 spherical_to_cartesian(const GeoPoint& p, double radius_km) {
  const double lat = deg2rad(p.lat_deg);
  const double lon = deg2rad(p.lon_deg);
  return {radius_km * std::cos(lat) * std::cos(lon),
          radius_km * std::cos(lat) * std::sin(lon),
          radius_km * std::sin(lat)};
}

GeoPoint cartesian_to_spherical(const Vec3& v) {
  const double r = v.norm();
  // leolint:allow(float-eq): exact-zero guard before dividing by norm
  if (r == 0.0) throw std::domain_error("cartesian_to_spherical: zero vector");
  return GeoPoint{rad2deg(std::asin(v.z / r)), rad2deg(std::atan2(v.y, v.x))}
      .normalized();
}

}  // namespace leodivide::geo
