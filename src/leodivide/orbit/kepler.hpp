#pragma once
// Circular Keplerian orbital elements and two-body relations. Starlink
// shells are near-circular, so the library models circular orbits only;
// eccentric elements would add nothing to the paper's capacity model.

#include "leodivide/geo/ecef.hpp"

namespace leodivide::orbit {

/// Circular orbit elements. Angles in radians.
struct CircularOrbit {
  double altitude_km = 550.0;      ///< above the spherical Earth surface
  double inclination_rad = 0.0;    ///< orbital plane inclination
  double raan_rad = 0.0;           ///< right ascension of ascending node
  double phase_rad = 0.0;          ///< argument of latitude at epoch

  /// Orbit radius from the Earth's center [km].
  [[nodiscard]] double radius_km() const noexcept;

  /// Orbital period [s] from Kepler's third law.
  [[nodiscard]] double period_s() const noexcept;

  /// Mean motion [rad/s].
  [[nodiscard]] double mean_motion_rad_s() const noexcept;
};

/// The per-orbit factors of an ECI position: radius, mean motion and the
/// cos/sin of inclination and RAAN. Every orbit of one plane shares them,
/// so a batch takes their trig once per plane rather than per satellite.
struct OrbitPlane {
  OrbitPlane() = default;
  explicit OrbitPlane(const CircularOrbit& orbit);

  /// Position in the Earth-centered inertial frame at time t since epoch,
  /// of the orbit in this plane whose argument of latitude at epoch is
  /// `phase_rad`.
  [[nodiscard]] geo::Vec3 eci_position(double phase_rad,
                                       double t_s) const noexcept;

  double radius_km = 0.0;
  double mean_motion_rad_s = 0.0;
  double cos_i = 1.0;
  double sin_i = 0.0;
  double cos_o = 1.0;
  double sin_o = 0.0;
};

/// Position in the Earth-centered inertial frame at time t since epoch.
[[nodiscard]] geo::Vec3 eci_position(const CircularOrbit& orbit, double t_s);

/// ECI position rotated into the Earth-fixed frame by the Earth angle whose
/// cosine and sine are `c` and `s`.
[[nodiscard]] inline geo::Vec3 eci_to_ecef(const geo::Vec3& eci, double c,
                                           double s) noexcept {
  return {eci.x * c + eci.y * s, -eci.x * s + eci.y * c, eci.z};
}

/// Geodetic sub-satellite point at time t, accounting for Earth rotation
/// (GMST angle = earth_rotation * t, epoch aligned with ECI x-axis).
[[nodiscard]] geo::GeoPoint subsatellite_point(const CircularOrbit& orbit,
                                               double t_s);

}  // namespace leodivide::orbit
