#include "leodivide/orbit/propagate.hpp"

#include <cmath>
#include <cstddef>

#include "leodivide/geo/angle.hpp"

namespace leodivide::orbit {

void propagate_all(const std::vector<CircularOrbit>& orbits, double t_s,
                   std::vector<SatState>& out) {
  // One Earth-rotation angle per epoch, not per satellite: every orbit
  // shares t, so cos/sin(theta) are hoisted. Two passes, not one loop: a
  // loop running eci_position's trig and cartesian_to_spherical's atan2/asin
  // per satellite measured 16-20% slower per call on shell 1 (4-vCPU Xeon
  // VM, -O2), with identical bytes.
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  out.resize(orbits.size());
  for (std::size_t i = 0; i < orbits.size(); ++i) {
    out[i].ecef_km = eci_to_ecef(eci_position(orbits[i], t_s), c, s);
  }
  for (SatState& state : out) {
    state.subpoint = geo::cartesian_to_spherical(state.ecef_km);
  }
}

std::vector<SatState> propagate_all(const std::vector<CircularOrbit>& orbits,
                                    double t_s) {
  std::vector<SatState> out;
  propagate_all(orbits, t_s, out);
  return out;
}

}  // namespace leodivide::orbit
