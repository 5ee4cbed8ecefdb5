#pragma once
// Polyfill: enumerate the cells of a resolution whose centers fall inside a
// polygon (H3's polygonToCells center-containment mode).

#include <vector>

#include "leodivide/geo/polygon.hpp"
#include "leodivide/hex/cellid.hpp"
#include "leodivide/hex/hexgrid.hpp"

namespace leodivide::runtime {
class Executor;
}

namespace leodivide::hex {

/// A polyfill's cells in (q, r) scan order, each with its centre as
/// HexGrid::center_of computes it (the point the containment test used).
struct PolyfillCells {
  std::vector<CellId> cells;
  std::vector<geo::GeoPoint> centers;

  friend bool operator==(const PolyfillCells&, const PolyfillCells&) = default;
};

/// All cells at `resolution` whose centers lie inside the polygon. The
/// candidate axial window is scanned over `executor` one task per group of
/// 8 q-columns, classified in 8x8 blocks that are dropped or kept whole
/// when their box misses the outline, with groups concatenated in order —
/// the output sequence is identical for every thread count.
[[nodiscard]] PolyfillCells polyfill(const HexGrid& grid,
                                     const geo::Polygon& poly, int resolution,
                                     runtime::Executor& executor);

}  // namespace leodivide::hex
