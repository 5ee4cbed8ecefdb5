#include "leodivide/orbit/propagate.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

namespace {

[[nodiscard]] bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// True if `a` and `b` lie in one OrbitPlane: bit-equal altitude,
// inclination and RAAN.
[[nodiscard]] bool same_plane(const CircularOrbit& a,
                              const CircularOrbit& b) noexcept {
  return same_bits(a.altitude_km, b.altitude_km) &&
         same_bits(a.inclination_rad, b.inclination_rad) &&
         same_bits(a.raan_rad, b.raan_rad);
}

}  // namespace

void propagate_all(const std::vector<CircularOrbit>& orbits, double t_s,
                   std::vector<SatState>& out) {
  // One Earth-rotation angle per epoch, not per satellite: every orbit
  // shares t, so cos/sin(theta) are hoisted.
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  // A Walker shell lists each plane's satellites in a run, so the plane's
  // trig is taken once per run of bit-equal planes; the bytes are those of
  // eci_position per satellite.
  out.resize(orbits.size());
  OrbitPlane plane;
  for (std::size_t i = 0; i < orbits.size(); ++i) {
    if (i == 0 || !same_plane(orbits[i - 1], orbits[i])) {
      plane = OrbitPlane(orbits[i]);
    }
    out[i].ecef_km =
        eci_to_ecef(plane.eci_position(orbits[i].phase_rad, t_s), c, s);
  }
}

std::vector<SatState> propagate_all(const std::vector<CircularOrbit>& orbits,
                                    double t_s) {
  std::vector<SatState> out;
  propagate_all(orbits, t_s, out);
  return out;
}

}  // namespace leodivide::orbit
