#include "leodivide/demand/geojson.hpp"

#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "leodivide/demand/ordered_text.hpp"
#include "leodivide/io/csv.hpp"
#include "leodivide/io/json.hpp"

namespace leodivide::demand {

namespace {

// Features one parallel task formats at least, and at most per round of
// the export (about 400 bytes each).
constexpr std::size_t kFeatureGrain = 64;
constexpr std::size_t kFeaturesPerTask = 2048;

// Appends one feature, with its leading comma, as JsonWriter's compact form
// wrote it.
void append_feature(std::string& out, const CellDemand& cell, double income,
                    const hex::HexGrid& grid) {
  io::NumberBuffer buf;
  out += R"(,{"type":"Feature","properties":{"cell_id":")";
  out += io::integer_text(buf, cell.cell.bits(), 16);
  out += R"(","underserved":)";
  out += io::integer_text(buf, cell.underserved);
  out += R"(,"demand_gbps":)";
  out += io::json_number_text(buf, cell.demand_gbps());
  out += R"(,"median_income_usd":)";
  out += io::json_number_text(buf, income);
  out += R"(},"geometry":{"type":"Polygon","coordinates":[[)";
  const auto boundary = grid.boundary_of(cell.cell);
  // Six vertices and the first again to close the ring, each [lon, lat]
  // in GeoJSON order.
  for (std::size_t k = 0; k <= boundary.size(); ++k) {
    const geo::GeoPoint& p = boundary[k % boundary.size()];
    out += k == 0 ? "[" : ",[";
    out += io::json_number_text(buf, p.lon_deg);
    out += ',';
    out += io::json_number_text(buf, p.lat_deg);
    out += ']';
  }
  out += "]]}}";
}

void write_text(std::ostream& out, std::string_view text) {
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("write_geojson: stream write failed");
}

}  // namespace

void write_geojson(std::ostream& out, const DemandProfile& profile,
                   const hex::HexGrid& grid, std::uint32_t min_locations,
                   runtime::Executor& executor) {
  const std::vector<CellDemand>& cells = profile.cells();
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].underserved >= min_locations) kept.push_back(i);
  }
  write_text(out, R"({"type":"FeatureCollection","features":[)");
  bool first = true;
  write_in_order(
      executor, kept.size(), kFeatureGrain, kFeaturesPerTask,
      [&cells, &kept, &profile, &grid](std::string& text, std::size_t lo,
                                       std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const CellDemand& cell = cells[kept[i]];
          append_feature(
              text, cell,
              profile.counties().at(cell.county_index).median_income_usd,
              grid);
        }
      },
      [&out, &first](std::string_view text, std::size_t, std::size_t) {
        // Every feature opens with a comma; the document's first drops it.
        if (first) text.remove_prefix(1);
        first = false;
        write_text(out, text);
      });
  write_text(out, "]}\n");
}

void write_geojson(std::ostream& out, const DemandProfile& profile,
                   const hex::HexGrid& grid, std::uint32_t min_locations) {
  write_geojson(out, profile, grid, min_locations, runtime::global_executor());
}

}  // namespace leodivide::demand
