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

/// All cells at `resolution` whose centers lie inside the polygon. The
/// candidate axial window is scanned in parallel over `executor`, one
/// contiguous block of q-columns per shard, with shards concatenated in
/// order — the output sequence is identical for every thread count.
[[nodiscard]] std::vector<CellId> polyfill(const HexGrid& grid,
                                           const geo::Polygon& poly,
                                           int resolution,
                                           runtime::Executor& executor);

/// Overload on the process-global executor (LEODIVIDE_THREADS).
[[nodiscard]] std::vector<CellId> polyfill(const HexGrid& grid,
                                           const geo::Polygon& poly,
                                           int resolution);

}  // namespace leodivide::hex
