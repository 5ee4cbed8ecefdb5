#pragma once
// Earth-Centered Earth-Fixed cartesian coordinates and their conversions
// from/to points on the spherical Earth.

#include "leodivide/geo/geopoint.hpp"

namespace leodivide::geo {

/// Cartesian vector in km. Used both for ECEF positions and ECI positions
/// (the orbit module rotates between the frames).
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend bool operator==(const Vec3&, const Vec3&) = default;

  [[nodiscard]] double norm() const noexcept;
  [[nodiscard]] double dot(const Vec3& o) const noexcept;
  /// Unit vector; throws std::domain_error for the zero vector.
  [[nodiscard]] Vec3 unit() const;
};

/// Point at `radius_km` from the Earth's centre and back. The orbit module
/// and the paper-level model treat the Earth as a sphere of radius
/// kEarthRadiusKm.
[[nodiscard]] Vec3 spherical_to_cartesian(const GeoPoint& p, double radius_km);
[[nodiscard]] GeoPoint cartesian_to_spherical(const Vec3& v);

}  // namespace leodivide::geo
