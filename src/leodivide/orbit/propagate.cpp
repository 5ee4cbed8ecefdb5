#include "leodivide/orbit/propagate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "leodivide/geo/angle.hpp"
#include "leodivide/orbit/kernels.hpp"

namespace leodivide::orbit {

void propagate_all(const std::vector<CircularOrbit>& orbits, double t_s,
                   std::vector<SatState>& out) {
  // One Earth-rotation angle per epoch, not per satellite: every orbit
  // shares t, so cos/sin(theta) are hoisted. The per-satellite trig lives
  // in eci_position (scalar — each orbit has its own phase), but the epoch
  // rotation is applied to fixed-size SoA blocks through the SIMD
  // rotate_about_z kernel, whose per-lane expression is the one from the
  // oracle::ecef_position test reference verbatim — positions stay
  // bit-identical to it (golden-tested in tests/test_simd.cpp), and the
  // stack blocks keep the call allocation-free.
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  out.resize(orbits.size());
  constexpr std::size_t kBlock = 128;
  double eci_x[kBlock];
  double eci_y[kBlock];
  double eci_z[kBlock];
  for (std::size_t base = 0; base < orbits.size(); base += kBlock) {
    const std::size_t m = std::min(kBlock, orbits.size() - base);
    for (std::size_t j = 0; j < m; ++j) {
      const geo::Vec3 eci = eci_position(orbits[base + j], t_s);
      eci_x[j] = eci.x;
      eci_y[j] = eci.y;
      eci_z[j] = eci.z;
    }
    rotate_about_z(eci_x, eci_y, c, s, m, eci_x, eci_y);
    for (std::size_t j = 0; j < m; ++j) {
      const geo::Vec3 ecef{eci_x[j], eci_y[j], eci_z[j]};
      out[base + j] = SatState{ecef, geo::cartesian_to_spherical(ecef)};
    }
  }
}

std::vector<SatState> propagate_all(const std::vector<CircularOrbit>& orbits,
                                    double t_s) {
  std::vector<SatState> out;
  propagate_all(orbits, t_s, out);
  return out;
}

}  // namespace leodivide::orbit
