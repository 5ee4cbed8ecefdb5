#include <algorithm>
#include <cmath>
#include <limits>

#include "leodivide/geo/angle.hpp"
#include "leodivide/geo/ecef.hpp"
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
  const geo::Vec3 cell_unit =
      geo::spherical_to_cartesian(cell, geo::kEarthRadiusKm).unit();
  out.resize(index
                 .scan(spans.data(), spans.size(), cell_unit,
                       -std::numeric_limits<double>::infinity(), out.data())
                 .visible);
  // Buckets partition the satellites, so the scan has no duplicates.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace leodivide::oracle
