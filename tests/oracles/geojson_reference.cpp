#include <ostream>

#include "leodivide/io/json.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::oracle {

void write_geojson_reference(std::ostream& out,
                             const demand::DemandProfile& profile,
                             const hex::HexGrid& grid,
                             std::uint32_t min_locations) {
  io::JsonWriter json(out, /*pretty=*/false);
  json.begin_object();
  json.value("type", "FeatureCollection");
  json.begin_array("features");
  for (const auto& cell : profile.cells()) {
    if (cell.underserved < min_locations) continue;
    json.begin_object();
    json.value("type", "Feature");
    json.begin_object("properties");
    json.value("cell_id", cell.cell.to_string());
    json.value("underserved", static_cast<long long>(cell.underserved));
    json.value("demand_gbps", cell.demand_gbps());
    json.value("median_income_usd",
               profile.counties().at(cell.county_index).median_income_usd);
    json.end_object();
    json.begin_object("geometry");
    json.value("type", "Polygon");
    json.begin_array("coordinates");
    json.begin_array();  // exterior ring
    const auto boundary = grid.boundary_of(cell.cell);
    auto emit_vertex = [&json](const geo::GeoPoint& p) {
      json.begin_array();
      json.element(p.lon_deg);  // GeoJSON order: [lon, lat]
      json.element(p.lat_deg);
      json.end_array();
    };
    for (const auto& v : boundary) emit_vertex(v);
    emit_vertex(boundary.front());  // close the ring
    json.end_array();
    json.end_array();
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace leodivide::oracle
