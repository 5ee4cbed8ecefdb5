#include "leodivide/orbit/kepler.hpp"

#include <cmath>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

double CircularOrbit::radius_km() const noexcept {
  return geo::kEarthRadiusKm + altitude_km;
}

double CircularOrbit::period_s() const noexcept {
  const double r = radius_km();
  return geo::kTwoPi * std::sqrt(r * r * r / geo::kMuEarth);
}

double CircularOrbit::mean_motion_rad_s() const noexcept {
  return geo::kTwoPi / period_s();
}

OrbitPlane::OrbitPlane(const CircularOrbit& orbit)
    : radius_km(orbit.radius_km()),
      mean_motion_rad_s(orbit.mean_motion_rad_s()),
      cos_i(std::cos(orbit.inclination_rad)),
      sin_i(std::sin(orbit.inclination_rad)),
      cos_o(std::cos(orbit.raan_rad)),
      sin_o(std::sin(orbit.raan_rad)) {}

geo::Vec3 OrbitPlane::eci_position(double phase_rad,
                                   double t_s) const noexcept {
  const double u = phase_rad + mean_motion_rad_s * t_s;
  const double r = radius_km;
  // Position in the orbital plane, then rotate by inclination about x and
  // RAAN about z.
  const double cos_u = std::cos(u);
  const double sin_u = std::sin(u);
  return {r * (cos_o * cos_u - sin_o * sin_u * cos_i),
          r * (sin_o * cos_u + cos_o * sin_u * cos_i),
          r * (sin_u * sin_i)};
}

geo::Vec3 eci_position(const CircularOrbit& orbit, double t_s) {
  return OrbitPlane(orbit).eci_position(orbit.phase_rad, t_s);
}

geo::GeoPoint subsatellite_point(const CircularOrbit& orbit, double t_s) {
  // Rotate ECI into ECEF by the accumulated Earth rotation angle.
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  return geo::cartesian_to_spherical(
      eci_to_ecef(eci_position(orbit, t_s), std::cos(theta), std::sin(theta)));
}

}  // namespace leodivide::orbit
