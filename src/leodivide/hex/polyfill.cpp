#include "leodivide/hex/polyfill.hpp"

#include <algorithm>
#include <cstdint>

#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/map_reduce.hpp"

namespace leodivide::hex {

PolyfillCells polyfill(const HexGrid& grid, const geo::Polygon& poly,
                       int resolution, runtime::Executor& executor) {
  // Scans an axial-coordinate window that covers the polygon's projected
  // bounding box and keeps cells whose centers lie inside the polygon,
  // handing each kept centre back so no caller projects it again. The
  // window is split into contiguous q-column blocks across the executor;
  // each shard emits its cells in (q, r) scan order and shards concatenate
  // in q order, so the result equals the serial scan exactly.
  const obs::Span span("hex.polyfill");
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
  auto fill = runtime::map_reduce<PolyfillCells>(
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
  if (obs::metrics_enabled()) {
    static obs::Counter& kept =
        obs::registry().counter("hex.polyfill.cells_kept");
    static obs::Counter& scanned =
        obs::registry().counter("hex.polyfill.cells_scanned");
    kept.add(fill.cells.size());
    scanned.add(columns *
                static_cast<std::size_t>(static_cast<std::int64_t>(r_hi) -
                                         r_lo + 1));
  }
  return fill;
}

PolyfillCells polyfill(const HexGrid& grid, const geo::Polygon& poly,
                       int resolution) {
  return polyfill(grid, poly, resolution, runtime::global_executor());
}

}  // namespace leodivide::hex
