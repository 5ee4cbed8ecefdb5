#include "leodivide/geo/polygon.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::oracle {

bool polygon_contains_reference(const geo::Polygon& poly,
                                const geo::GeoPoint& p) {
  if (!poly.bbox().contains(p)) return false;
  const auto vertices = poly.vertices();
  bool inside = false;
  const std::size_t n = vertices.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const auto& a = vertices[i];
    const auto& b = vertices[j];
    const bool crosses = (a.lat_deg > p.lat_deg) != (b.lat_deg > p.lat_deg);
    if (crosses) {
      const double x_at = (b.lon_deg - a.lon_deg) * (p.lat_deg - a.lat_deg) /
                              (b.lat_deg - a.lat_deg) +
                          a.lon_deg;
      if (p.lon_deg < x_at) inside = !inside;
    }
  }
  return inside;
}

}  // namespace leodivide::oracle
