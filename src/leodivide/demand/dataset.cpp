#include "leodivide/demand/dataset.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "leodivide/io/csv.hpp"

namespace leodivide::demand {

namespace {

using io::field_to_double;
using io::field_to_u64;

// A cell id as CellId::to_string writes it: the whole field in hex. A
// resolution nibble from_bits refuses, or the reserved invalid pattern, is
// as bad as a malformed field.
hex::CellId to_cell(std::string_view s) {
  hex::CellId id;
  try {
    id = hex::CellId::from_bits(field_to_u64(s, "cell_id", 16));
  } catch (const std::invalid_argument&) {
  }
  if (!id.valid()) {
    throw std::runtime_error("CSV: bad cell id for cell_id: '" +
                             std::string(s) + "'");
  }
  return id;
}

void write_counties(const CountyTable& counties, std::ostream& out) {
  io::CsvWriter kw(out);
  kw.write_row({"fips", "lat", "lon", "median_income_usd", "underserved"});
  io::NumberBuffer lat, lon, income, count;
  for (const auto& k : counties.all()) {
    kw.write_row({k.fips, io::fixed6_text(lat, k.centroid.lat_deg),
                  io::fixed6_text(lon, k.centroid.lon_deg),
                  io::fixed6_text(income, k.median_income_usd),
                  io::integer_text(count, k.underserved_locations)});
  }
}

CountyTable read_counties(std::istream& in, io::CsvRow& row) {
  CountyTable counties;
  io::CsvReader reader(in);
  bool header = true;
  while (reader.next(row)) {
    if (header) {
      header = false;
      continue;
    }
    if (row.size() != 5) throw std::runtime_error("county CSV: bad width");
    counties.add(County{
        row[0],
        {field_to_double(row[1], "lat"), field_to_double(row[2], "lon")},
        field_to_double(row[3], "income"),
        field_to_u64(row[4], "underserved")});
  }
  return counties;
}

}  // namespace

double CellDemand::demand_gbps() const noexcept {
  return static_cast<double>(underserved) * location_demand_gbps();
}

DemandProfile::DemandProfile(std::vector<CellDemand> cells,
                             CountyTable counties)
    : cells_(std::move(cells)), counties_(std::move(counties)) {
  for (const auto& c : cells_) {
    if (c.county_index >= counties_.size()) {
      throw std::invalid_argument("DemandProfile: cell county out of range");
    }
  }
}

CellDemand& DemandProfile::cell_at(std::size_t index) {
  if (index >= cells_.size()) {
    throw std::out_of_range("DemandProfile: cell index out of range");
  }
  return cells_[index];
}

std::size_t DemandProfile::add_cell(CellDemand cell) {
  if (cell.county_index >= counties_.size()) {
    throw std::invalid_argument("DemandProfile: cell county out of range");
  }
  cells_.push_back(cell);
  return cells_.size() - 1;
}

std::uint64_t DemandProfile::total_locations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.underserved;
  return total;
}

std::vector<double> DemandProfile::counts_as_doubles() const {
  std::vector<double> out;
  out.reserve(cells_.size());
  for (const auto& c : cells_) out.push_back(static_cast<double>(c.underserved));
  return out;
}

std::uint32_t DemandProfile::peak_cell_count() const noexcept {
  std::uint32_t best = 0;
  for (const auto& c : cells_) best = std::max(best, c.underserved);
  return best;
}

PeakCandidate DemandProfile::peak_cell() const noexcept {
  PeakCandidate peak;
  for (std::size_t i = 0; i < cells_.size(); ++i) peak.consider(i, cells_[i]);
  return peak;
}

void DemandProfile::save_csv(std::ostream& cells_out,
                             std::ostream& counties_out) const {
  io::CsvWriter cw(cells_out);
  cw.write_row({"cell_id", "lat", "lon", "underserved", "county_index"});
  io::NumberBuffer id, lat, lon, count, county;
  for (const auto& c : cells_) {
    cw.write_row({io::integer_text(id, c.cell.bits(), 16),
                  io::fixed6_text(lat, c.center.lat_deg),
                  io::fixed6_text(lon, c.center.lon_deg),
                  io::integer_text(count, c.underserved),
                  io::integer_text(county, c.county_index)});
  }
  write_counties(counties_, counties_out);
}

DemandProfile DemandProfile::load_csv(std::istream& cells_in,
                                      std::istream& counties_in) {
  io::CsvRow row;
  CountyTable counties = read_counties(counties_in, row);
  std::vector<CellDemand> cells;
  {
    io::CsvReader reader(cells_in);
    bool header = true;
    while (reader.next(row)) {
      if (header) {
        header = false;
        continue;
      }
      if (row.size() != 5) throw std::runtime_error("cell CSV: bad width");
      CellDemand cd;
      cd.cell = to_cell(row[0]);
      cd.center = {field_to_double(row[1], "lat"),
                   field_to_double(row[2], "lon")};
      cd.underserved =
          static_cast<std::uint32_t>(field_to_u64(row[3], "count"));
      cd.county_index =
          static_cast<std::uint32_t>(field_to_u64(row[4], "county"));
      cells.push_back(cd);
    }
  }
  return DemandProfile(std::move(cells), std::move(counties));
}

DemandDataset::DemandDataset(std::vector<Location> locations,
                             CountyTable counties)
    : locations_(std::move(locations)), counties_(std::move(counties)) {
  for (const auto& l : locations_) {
    if (l.county_index >= counties_.size()) {
      throw std::invalid_argument("DemandDataset: location county out of range");
    }
  }
}

std::uint64_t DemandDataset::underserved_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : locations_) {
    if (l.underserved()) ++n;
  }
  return n;
}

void DemandDataset::save_csv(std::ostream& locations_out,
                             std::ostream& counties_out) const {
  io::CsvWriter lw(locations_out);
  lw.write_row({"id", "lat", "lon", "county_index", "down_mbps", "up_mbps",
                "technology"});
  io::NumberBuffer id, lat, lon, county, down, up;
  for (const auto& l : locations_) {
    lw.write_row({io::integer_text(id, l.id),
                  io::fixed6_text(lat, l.position.lat_deg),
                  io::fixed6_text(lon, l.position.lon_deg),
                  io::integer_text(county, l.county_index),
                  io::fixed6_text(down, l.best_offer.down_mbps),
                  io::fixed6_text(up, l.best_offer.up_mbps),
                  to_string(l.technology)});
  }
  write_counties(counties_, counties_out);
}

DemandDataset DemandDataset::load_csv(std::istream& locations_in,
                                      std::istream& counties_in) {
  io::CsvRow row;
  CountyTable counties = read_counties(counties_in, row);
  std::vector<Location> locations;
  {
    io::CsvReader reader(locations_in);
    bool header = true;
    while (reader.next(row)) {
      if (header) {
        header = false;
        continue;
      }
      if (row.size() != 7) throw std::runtime_error("location CSV: bad width");
      Location l;
      l.id = field_to_u64(row[0], "id");
      l.position = {field_to_double(row[1], "lat"),
                    field_to_double(row[2], "lon")};
      l.county_index =
          static_cast<std::uint32_t>(field_to_u64(row[3], "county"));
      l.best_offer = {field_to_double(row[4], "down"),
                      field_to_double(row[5], "up")};
      l.technology = technology_from_string(row[6]);
      locations.push_back(l);
    }
  }
  return DemandDataset(std::move(locations), std::move(counties));
}

}  // namespace leodivide::demand
