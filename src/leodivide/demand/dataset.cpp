#include "leodivide/demand/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "leodivide/demand/ordered_text.hpp"
#include "leodivide/io/csv.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/runtime/parallel_for.hpp"

namespace leodivide::demand {

namespace {

using io::field_to_double;
using io::field_to_u32;
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

// A coordinate field: a double field_to_double reads, but never NaN or
// an infinity.
double finite_field(std::string_view s, const char* what) {
  const double v = field_to_double(s, what);
  if (!std::isfinite(v)) {
    throw std::runtime_error(std::string("CSV: non-finite ") + what + ": '" +
                             std::string(s) + "'");
  }
  return v;
}

// Records one parallel task parses or formats at least, and formats at
// most per round of a save.
constexpr std::size_t kCsvGrain = 1024;
constexpr std::size_t kSaveRowsPerTask = 16384;

// The cell records of `in` after its header. Blocks are split in stream
// order and each block's records parsed in parallel into pre-sized slots.
// The first bad record in file order raises its error, as a serial scan
// would: earlier blocks held none, and within a block the lowest-indexed
// failing chunk wins. The header is parsed (malformed quoting there throws
// too) but not kept.
std::vector<CellDemand> read_cells(std::istream& in,
                                   runtime::Executor& executor) {
  io::CsvBlockReader reader(in);
  std::vector<io::CsvRecord> records;
  std::vector<CellDemand> out;
  std::size_t header = 1;  // records of this block before its first row
  while (reader.next_block(records)) {
    const std::size_t base = out.size();
    out.resize(base + records.size() - header);
    runtime::parallel_for(
        executor, 0, records.size(),
        // leolint:allow(parallel-capture): each record writes only its own out slot
        [&records, &out, base, header](std::size_t lo, std::size_t hi) {
          io::CsvRow r;
          for (std::size_t i = lo; i < hi; ++i) {
            io::parse_csv_record(records[i], r);
            if (i < header) continue;
            if (r.size() != 5) throw std::runtime_error("cell CSV: bad width");
            CellDemand& cd = out[base + i - header];
            cd.cell = to_cell(r[0]);
            cd.center = {finite_field(r[1], "lat"), finite_field(r[2], "lon")};
            cd.underserved = field_to_u32(r[3], "count");
            cd.county_index = field_to_u32(r[4], "county");
          }
        },
        kCsvGrain);
    header = 0;
  }
  return out;
}

// Writes one record per cell after the header `writer` has written, in
// ordered executor chunks of at most kSaveRowsPerTask rows per task and
// round; each task's records reach the stream in one write.
void write_cells(io::CsvWriter& writer, const std::vector<CellDemand>& cells,
                 runtime::Executor& executor) {
  write_in_order(
      executor, cells.size(), kCsvGrain, kSaveRowsPerTask,
      [&cells](std::string& text, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const CellDemand& c = cells[i];
          io::NumberBuffer id, lat, lon, count, county;
          io::append_csv_record(
              text, {io::integer_text(id, c.cell.bits(), 16),
                     io::fixed6_text(lat, c.center.lat_deg),
                     io::fixed6_text(lon, c.center.lon_deg),
                     io::integer_text(count, c.underserved),
                     io::integer_text(county, c.county_index)});
        }
      },
      [&writer](std::string_view text, std::size_t lo, std::size_t hi) {
        writer.write_records(text, hi - lo);
      });
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
    const geo::GeoPoint centroid{finite_field(row[1], "lat"),
                                 finite_field(row[2], "lon")};
    const double income = field_to_double(row[3], "income");
    if (!valid_median_income(income)) {
      throw std::runtime_error(
          "CSV: income must be finite and above zero: '" + row[3] + "'");
    }
    counties.add(
        County{row[0], centroid, income, field_to_u64(row[4], "underserved")});
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
  save_csv(cells_out, counties_out, runtime::global_executor());
}

void DemandProfile::save_csv(std::ostream& cells_out,
                             std::ostream& counties_out,
                             runtime::Executor& executor) const {
  io::CsvWriter cw(cells_out);
  cw.write_row({"cell_id", "lat", "lon", "underserved", "county_index"});
  write_cells(cw, cells_, executor);
  write_counties(counties_, counties_out);
}

DemandProfile DemandProfile::load_csv(std::istream& cells_in,
                                      std::istream& counties_in) {
  return load_csv(cells_in, counties_in, runtime::global_executor());
}

DemandProfile DemandProfile::load_csv(std::istream& cells_in,
                                      std::istream& counties_in,
                                      runtime::Executor& executor) {
  io::CsvRow row;
  CountyTable counties = read_counties(counties_in, row);
  std::vector<CellDemand> cells = read_cells(cells_in, executor);
  return DemandProfile(std::move(cells), std::move(counties));
}

}  // namespace leodivide::demand
