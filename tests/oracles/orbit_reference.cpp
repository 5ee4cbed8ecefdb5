#include <algorithm>
#include <cmath>

#include "leodivide/geo/angle.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::oracle {

geo::Vec3 ecef_position(const orbit::CircularOrbit& orbit, double t_s) {
  const geo::Vec3 eci = orbit::eci_position(orbit, t_s);
  const double theta = geo::kEarthRotationRadPerSec * t_s;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  return {eci.x * c + eci.y * s, -eci.x * s + eci.y * c, eci.z};
}

std::vector<std::uint32_t> vis_candidates(const orbit::VisIndex& index,
                                          const geo::GeoPoint& cell) {
  std::vector<orbit::BucketSpan> spans;
  index.window(cell, 0.0, spans);
  std::vector<std::uint32_t> out(index.sat_count());
  out.resize(index.gather(spans.data(), spans.size(), out.data()));
  // Buckets partition the satellites, so the gather has no duplicates.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace leodivide::oracle
