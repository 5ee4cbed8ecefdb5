#include <algorithm>
#include <cmath>
#include <cstdint>

#include "leodivide/geo/polygon.hpp"
#include "leodivide/geo/angle.hpp"
#include "leodivide/runtime/map_reduce.hpp"
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

std::vector<geo::GeoPoint> random_star(stats::Pcg32& rng, double snap_deg) {
  const std::size_t n = 3 + rng.next_below(14);
  std::vector<double> angles(n);
  for (double& a : angles) a = sample_uniform(rng, 0.0, geo::kTwoPi);
  std::sort(angles.begin(), angles.end());
  const double lat0 = sample_uniform(rng, -40.0, 40.0);
  const double lon0 = sample_uniform(rng, -150.0, 150.0);
  std::vector<geo::GeoPoint> v;
  for (const double a : angles) {
    const double r = sample_uniform(rng, 0.5, 6.0);
    double lat = lat0 + r * std::sin(a);
    if (snap_deg > 0.0) lat = std::round(lat / snap_deg) * snap_deg;
    v.push_back({lat, lon0 + r * std::cos(a)});
  }
  return v;
}

std::vector<geo::GeoPoint> random_histogram(stats::Pcg32& rng) {
  const std::size_t columns = 2 + rng.next_below(8);
  const auto height = [&rng] {
    return 1.0 + 0.5 * static_cast<double>(rng.next_below(6));
  };
  std::vector<geo::GeoPoint> v{{0.0, 0.0}};
  for (std::size_t c = 0; c < columns; ++c) {
    const double left = height();
    const double right = rng.next_below(2) == 0 ? left : height();
    v.push_back({left, static_cast<double>(c)});
    v.push_back({right, static_cast<double>(c + 1)});
  }
  v.push_back({0.0, static_cast<double>(columns)});
  return v;
}

hex::PolyfillCells polyfill_reference(const hex::HexGrid& grid,
                                      const geo::Polygon& poly, int resolution,
                                      runtime::Executor& executor) {
  using hex::CellId;
  using hex::HexCoord;
  using hex::PolyfillCells;
  const geo::BoundingBox box = poly.bbox();
  // Project the box corners plus edge midpoints to bound the axial window.
  std::vector<geo::GeoPoint> probes{
      {box.lat_min, box.lon_min}, {box.lat_min, box.lon_max},
      {box.lat_max, box.lon_min}, {box.lat_max, box.lon_max},
      {box.lat_min, (box.lon_min + box.lon_max) / 2},
      {box.lat_max, (box.lon_min + box.lon_max) / 2},
      {(box.lat_min + box.lat_max) / 2, box.lon_min},
      {(box.lat_min + box.lat_max) / 2, box.lon_max}};
  std::int32_t q_lo = INT32_MAX, q_hi = INT32_MIN;
  std::int32_t r_lo = INT32_MAX, r_hi = INT32_MIN;
  for (const auto& p : probes) {
    const HexCoord h = grid.cell_of(p, resolution).coord();
    q_lo = std::min(q_lo, h.q);
    q_hi = std::max(q_hi, h.q);
    r_lo = std::min(r_lo, h.r);
    r_hi = std::max(r_hi, h.r);
  }
  // Pad by one cell: centers near edges may round outward.
  --q_lo; ++q_hi; --r_lo; ++r_hi;
  const auto columns =
      static_cast<std::size_t>(static_cast<std::int64_t>(q_hi) - q_lo + 1);
  return runtime::map_reduce<PolyfillCells>(
      executor, 0, columns,
      [q_lo, r_lo, r_hi, resolution, &grid, &poly](
          PolyfillCells& shard, std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t c = lo; c < hi; ++c) {
          const auto q = static_cast<std::int32_t>(q_lo + static_cast<std::int64_t>(c));
          for (std::int32_t r = r_lo; r <= r_hi; ++r) {
            const CellId id(resolution, HexCoord{q, r});
            const geo::GeoPoint center = grid.center_of(id);
            if (poly.contains(center)) {
              shard.cells.push_back(id);
              shard.centers.push_back(center);
            }
          }
        }
      },
      [](PolyfillCells& into, PolyfillCells&& from) {
        into.cells.insert(into.cells.end(), from.cells.begin(),
                          from.cells.end());
        into.centers.insert(into.centers.end(), from.centers.begin(),
                            from.centers.end());
      });
}

}  // namespace leodivide::oracle
