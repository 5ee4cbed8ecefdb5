#pragma once
// GeoJSON export: render demand profiles and hex cells as FeatureCollections
// for inspection in any GIS tool (kepler.gl, QGIS, geojson.io). Each cell
// becomes a hexagon Polygon feature carrying its un(der)served count.

#include <cstdint>
#include <iosfwd>

#include "leodivide/demand/dataset.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::demand {

/// Writes a profile's cells as a compact GeoJSON FeatureCollection. Each
/// feature's geometry is the cell's hexagon boundary; properties carry
/// `cell_id`, `underserved`, `demand_gbps`, and the county's
/// `median_income_usd`, numbers as io::json_number_text writes them. Cells
/// with fewer than `min_locations` un(der)served locations are skipped (0
/// keeps everything). Features are formatted in ordered executor chunks,
/// the same bytes at every thread count. A stream that enters a failed
/// state raises std::runtime_error.
void write_geojson(std::ostream& out, const DemandProfile& profile,
                   const hex::HexGrid& grid, std::uint32_t min_locations,
                   runtime::Executor& executor);

/// write_geojson on the global executor.
void write_geojson(std::ostream& out, const DemandProfile& profile,
                   const hex::HexGrid& grid,
                   std::uint32_t min_locations = 0);

}  // namespace leodivide::demand
