#include "leodivide/hex/polyfill.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "leodivide/geo/angle.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::hex {

namespace {

// The window is classified in kBlock x kBlock blocks of axial cells.
constexpr std::int32_t kBlock = 8;
// Widening [deg] of a block's box. It dwarfs the rounding of a computed
// centre and of contains()'s crossing abscissa, both ~1e-12 deg for
// vertices on the globe and blocks away from a pole.
constexpr double kSlackDeg = 1e-6;
// A block whose box comes this close to a pole is tested cell by cell:
// there the inverse projection's asin amplifies rounding.
constexpr double kPoleMarginDeg = 1.0;

enum class BlockClass : std::uint8_t { kOutside, kInside, kPerCell };

// Whether blocks may be classified at all: every vertex finite and on the
// globe (|lat| <= 90, |lon| <= 180). Off it, the polygon's bounding box,
// which contains() tests first, need not hold every vertex, and its sides
// would bound the inside where no edge does.
bool classifiable(const geo::Polygon& poly) {
  return std::all_of(poly.vertices().begin(), poly.vertices().end(),
                     [](const geo::GeoPoint& v) {
                       return std::abs(v.lat_deg) <= 90.0 &&
                              std::abs(v.lon_deg) <= 180.0;
                     });
}

// Classifies the nq x nr block at (q0, r0). Every centre lies within the
// block's largest plane distance d of the middle centre P0 on the ground,
// because the inverse azimuthal-equidistant map is 1-Lipschitz (its
// tangential scale sin c / c <= 1). On the sphere that cap of radius
// delta = d / R spans |dlat| <= delta and |dlon| <= asin(sin delta /
// cos(|lat0| + delta)). Widened by kSlackDeg, a box that meets no edge of
// the outline is all inside or all outside, as contains(P0) says.
BlockClass classify(const HexGrid& grid, const geo::Polygon& poly,
                    int resolution, std::int32_t q0, std::int32_t nq,
                    std::int32_t r0, std::int32_t nr, double edge_km) {
  const std::int32_t mq = (nq - 1) / 2;
  const std::int32_t mr = (nr - 1) / 2;
  const geo::GeoPoint p0 =
      grid.center_of(CellId(resolution, HexCoord{q0 + mq, r0 + mr}));
  // |plane offset|^2 = 3 a^2 (dq^2 + dq dr + dr^2), largest at a corner of
  // the block's parallelogram.
  std::int32_t far2 = 0;
  for (const std::int32_t dq : {-mq, nq - 1 - mq}) {
    for (const std::int32_t dr : {-mr, nr - 1 - mr}) {
      far2 = std::max(far2, dq * dq + dq * dr + dr * dr);
    }
  }
  const double delta =
      edge_km * std::sqrt(3.0 * static_cast<double>(far2)) / geo::kEarthRadiusKm;
  const double delta_deg = geo::rad2deg(delta);
  const double abs_lat = std::abs(p0.lat_deg);
  if (abs_lat + delta_deg > 90.0 - kPoleMarginDeg) return BlockClass::kPerCell;
  const double sin_dlon =
      std::sin(delta) / std::cos(geo::deg2rad(abs_lat) + delta);
  if (!(sin_dlon < 1.0)) return BlockClass::kPerCell;
  const double dlon_deg = geo::rad2deg(std::asin(sin_dlon));
  const geo::BoundingBox box{p0.lat_deg - delta_deg - kSlackDeg,
                             p0.lat_deg + delta_deg + kSlackDeg,
                             p0.lon_deg - dlon_deg - kSlackDeg,
                             p0.lon_deg + dlon_deg + kSlackDeg};
  // Centres wrap into (-180, 180]: a box reaching either end may hold
  // centres on the other side.
  if (box.lon_min <= -180.0 || box.lon_max >= 180.0) {
    return BlockClass::kPerCell;
  }
  if (poly.boundary_meets(box)) return BlockClass::kPerCell;
  return poly.contains(p0) ? BlockClass::kInside : BlockClass::kOutside;
}

}  // namespace

PolyfillCells polyfill(const HexGrid& grid, const geo::Polygon& poly,
                       int resolution, runtime::Executor& executor) {
  // Scans an axial-coordinate window that covers the polygon's projected
  // bounding box and keeps cells whose centers lie inside the polygon,
  // handing each kept centre back so no caller projects it again. The
  // window is cut into kBlock x kBlock blocks; a block that classify()
  // decides is dropped unprojected or kept without containment tests, and
  // any other block tests each cell as the per-cell scan does. Each
  // kBlock-column group emits its cells in (q, r) scan order and the groups
  // concatenate in q order, so the result equals the serial scan exactly.
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
  const auto rows =
      static_cast<std::size_t>(static_cast<std::int64_t>(r_hi) - r_lo + 1);
  const std::size_t groups = (columns + kBlock - 1) / kBlock;
  const std::size_t row_blocks = (rows + kBlock - 1) / kBlock;
  const bool by_block = classifiable(poly);
  const double edge_km = edge_length_km(resolution);
  const auto row_start = [r_lo](std::size_t b) {
    return static_cast<std::int32_t>(r_lo +
                                     static_cast<std::int64_t>(b) * kBlock);
  };
  // Scans kBlock-column group g into `part`: classify its blocks, then walk
  // its columns in r order, skipping outside blocks.
  const auto scan_group = [&](PolyfillCells& part, std::size_t g) {
    const auto q0 =
        static_cast<std::int32_t>(q_lo + static_cast<std::int64_t>(g) * kBlock);
    const std::int32_t q1 = std::min(q_hi, q0 + (kBlock - 1));
    std::vector<BlockClass> classes(row_blocks, BlockClass::kPerCell);
    if (by_block) {
      for (std::size_t b = 0; b < row_blocks; ++b) {
        const std::int32_t r0 = row_start(b);
        const std::int32_t r1 = std::min(r_hi, r0 + (kBlock - 1));
        classes[b] = classify(grid, poly, resolution, q0, q1 - q0 + 1, r0,
                              r1 - r0 + 1, edge_km);
      }
    }
    for (std::int32_t q = q0; q <= q1; ++q) {
      for (std::size_t b = 0; b < row_blocks; ++b) {
        const BlockClass cls = classes[b];
        if (cls == BlockClass::kOutside) continue;
        const std::int32_t r0 = row_start(b);
        const std::int32_t r1 = std::min(r_hi, r0 + (kBlock - 1));
        for (std::int32_t r = r0; r <= r1; ++r) {
          const CellId id(resolution, HexCoord{q, r});
          const geo::GeoPoint center = grid.center_of(id);
          if (cls == BlockClass::kInside || poly.contains(center)) {
            part.cells.push_back(id);
            part.centers.push_back(center);
          }
        }
      }
    }
  };
  // Outside blocks cost next to nothing, so groups carry uneven work: each
  // is its own task, which a pool hands out one at a time, and the parts
  // concatenate in q order.
  std::vector<PolyfillCells> parts(groups);
  executor.run_tasks(
      groups,
      // leolint:allow(parallel-capture): each task writes only its own part
      [&parts, &scan_group](std::size_t g) { scan_group(parts[g], g); });
  PolyfillCells fill;
  std::size_t kept_cells = 0;
  for (const PolyfillCells& part : parts) kept_cells += part.cells.size();
  fill.cells.reserve(kept_cells);
  fill.centers.reserve(kept_cells);
  for (const PolyfillCells& part : parts) {
    fill.cells.insert(fill.cells.end(), part.cells.begin(), part.cells.end());
    fill.centers.insert(fill.centers.end(), part.centers.begin(),
                        part.centers.end());
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& kept =
        obs::registry().counter("hex.polyfill.cells_kept");
    static obs::Counter& scanned =
        obs::registry().counter("hex.polyfill.cells_scanned");
    kept.add(fill.cells.size());
    scanned.add(columns * rows);
  }
  return fill;
}

}  // namespace leodivide::hex
