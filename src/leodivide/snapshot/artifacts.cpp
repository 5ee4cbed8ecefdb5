#include "leodivide/snapshot/artifacts.hpp"

#include <cassert>
#include <utility>

namespace leodivide::snapshot {

namespace {

// Shared section encodings. Every vector is written as a u64 count
// followed by its records; strings are u32-length-prefixed. The k*Bytes
// constants are the wire size of one fixed-layout record, or the smallest
// wire size of a variable one (empty strings and vectors): encoders
// reserve with them, and decoders check every count against them before
// reserving, so a corrupt count fails typed instead of allocating.

constexpr std::size_t kCountyMinBytes = 4 + 8 + 8 + 8 + 8;
constexpr std::size_t kCellBytes = 8 + 8 + 8 + 4 + 4;
constexpr std::size_t kF64Bytes = 8;
constexpr std::size_t kTable1Bytes = 8 * 8 + 3 * 4;
constexpr std::size_t kF1Bytes = 3 * 8 + 2 * 4 + 3 * 8;
constexpr std::size_t kTable2RowBytes = 8 + 8 + 8;
constexpr std::size_t kFig3CurveMinBytes = 8 + 8 + 8;
constexpr std::size_t kLongTailPointBytes = 8 + 8 + 4 + 8;
constexpr std::size_t kPlanAffordabilityMinBytes = 4 + 6 * 8;
constexpr std::size_t kCoverageBytes = 7 * 8;
constexpr std::size_t kSizingBytes = 8 + 8 + 4 + 8;
constexpr std::size_t kOperatorMinBytes =
    4 + 8 + 2 * kSizingBytes + 8 + 8 + 8 + kPlanAffordabilityMinBytes;
constexpr std::size_t kOperatorFairnessBytes = 3 * 8;

std::size_t counties_bytes(const demand::CountyTable& counties) {
  std::size_t n = 8 + counties.size() * kCountyMinBytes;
  for (const demand::County& c : counties.all()) n += c.fips.size();
  return n;
}

void encode_counties(ByteWriter& w, const demand::CountyTable& counties) {
  w.count(counties.size(), kCountyMinBytes);
  for (const demand::County& c : counties.all()) {
    w.str(c.fips);
    w.f64(c.centroid.lat_deg);
    w.f64(c.centroid.lon_deg);
    w.f64(c.median_income_usd);
    w.u64(c.underserved_locations);
  }
}

demand::CountyTable decode_counties(std::string_view payload) {
  ByteReader r(payload);
  const std::size_t n = r.count(kCountyMinBytes);
  std::vector<demand::County> counties;
  counties.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    demand::County c;
    c.fips = r.str();
    c.centroid.lat_deg = r.f64();
    c.centroid.lon_deg = r.f64();
    c.median_income_usd = r.f64();
    c.underserved_locations = r.u64();
    counties.push_back(std::move(c));
  }
  r.expect_exhausted("counties section");
  try {
    return demand::CountyTable(std::move(counties));
  } catch (const std::exception& e) {
    // CountyTable rejects duplicate FIPS; map that to the typed error.
    throw SnapshotError(std::string("LDSNAP: invalid county table: ") +
                        e.what());
  }
}

void encode_cells(ByteWriter& w,
                  const std::vector<demand::CellDemand>& cells) {
  w.count(cells.size(), kCellBytes);
  for (const demand::CellDemand& c : cells) {
    w.u64(c.cell.bits());
    w.f64(c.center.lat_deg);
    w.f64(c.center.lon_deg);
    w.u32(c.underserved);
    w.u32(c.county_index);
  }
}

std::vector<demand::CellDemand> decode_cells(std::string_view payload,
                                             std::size_t county_count) {
  ByteReader r(payload);
  const std::size_t n = r.count(kCellBytes);
  RecordReader rec = r.records(n, kCellBytes);
  std::vector<demand::CellDemand> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    demand::CellDemand c;
    c.cell = hex::CellId::from_bits(rec.u64());
    c.center.lat_deg = rec.f64();
    c.center.lon_deg = rec.f64();
    c.underserved = rec.u32();
    c.county_index = rec.u32();
    if (c.county_index >= county_count) {
      throw SnapshotError("LDSNAP: cell " + std::to_string(i) +
                          " references county " +
                          std::to_string(c.county_index) + " of " +
                          std::to_string(county_count));
    }
    cells.push_back(c);
  }
  r.expect_exhausted("cells section");
  return cells;
}

void encode_f64_vec(ByteWriter& w, const std::vector<double>& v) {
  w.count(v.size(), kF64Bytes);
  for (double x : v) w.f64(x);
}

std::vector<double> decode_f64_vec(ByteReader& r) {
  const std::size_t n = r.count(kF64Bytes);
  RecordReader rec = r.records(n, kF64Bytes);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(rec.f64());
  return v;
}

void encode_longtail(ByteWriter& w,
                     const std::vector<core::LongTailPoint>& points) {
  w.count(points.size(), kLongTailPointBytes);
  for (const core::LongTailPoint& p : points) {
    w.u64(p.locations_unserved);
    w.f64(p.satellites);
    w.u32(p.beams_on_binding);
    w.f64(p.binding_lat_deg);
  }
}

std::vector<core::LongTailPoint> decode_longtail(ByteReader& r) {
  const std::size_t n = r.count(kLongTailPointBytes);
  RecordReader rec = r.records(n, kLongTailPointBytes);
  std::vector<core::LongTailPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::LongTailPoint p;
    p.locations_unserved = rec.u64();
    p.satellites = rec.f64();
    p.beams_on_binding = rec.u32();
    p.binding_lat_deg = rec.f64();
    points.push_back(p);
  }
  return points;
}

void encode_plan_affordability(ByteWriter& w,
                               const afford::PlanAffordability& a) {
  w.str(a.plan.name);
  w.f64(a.plan.monthly_usd);
  w.f64(a.plan.speeds.down_mbps);
  w.f64(a.plan.speeds.up_mbps);
  w.f64(a.income_required_usd);
  w.f64(a.locations_unable);
  w.f64(a.fraction_unable);
}

afford::PlanAffordability decode_plan_affordability(ByteReader& r) {
  afford::PlanAffordability a;
  a.plan.name = r.str();
  a.plan.monthly_usd = r.f64();
  a.plan.speeds.down_mbps = r.f64();
  a.plan.speeds.up_mbps = r.f64();
  a.income_required_usd = r.f64();
  a.locations_unable = r.f64();
  a.fraction_unable = r.f64();
  return a;
}

void write_coverage(ByteWriter& w, const sim::EpochCoverage& e) {
  w.f64(e.time_s);
  w.u64(e.cells_total);
  w.u64(e.cells_served);
  w.u64(e.locations_total);
  w.u64(e.locations_served);
  w.f64(e.mean_beam_utilization);
  w.u64(e.satellites_in_view);
}

[[nodiscard]] sim::EpochCoverage read_coverage(RecordReader& r) {
  sim::EpochCoverage e;
  e.time_s = r.f64();
  e.cells_total = static_cast<std::size_t>(r.u64());
  e.cells_served = static_cast<std::size_t>(r.u64());
  e.locations_total = r.u64();
  e.locations_served = r.u64();
  e.mean_beam_utilization = r.f64();
  e.satellites_in_view = static_cast<std::size_t>(r.u64());
  return e;
}

void write_sizing(ByteWriter& w, const core::SizingResult& s) {
  w.f64(s.satellites);
  w.f64(s.binding_lat_deg);
  w.u32(s.beams_on_binding);
  w.u64(s.binding_cell_index);
}

[[nodiscard]] core::SizingResult read_sizing(ByteReader& r) {
  core::SizingResult s;
  s.satellites = r.f64();
  s.binding_lat_deg = r.f64();
  s.beams_on_binding = r.u32();
  s.binding_cell_index = static_cast<std::size_t>(r.u64());
  return s;
}

// Wire sizes of the sections that nest vectors, so their encoders
// allocate once instead of growing at every inner count.

std::size_t analysis_bytes(const core::AnalysisResults& r) {
  std::size_t n = kTable1Bytes + kF1Bytes +
                  8 + r.table2.size() * kTable2RowBytes +
                  8 + r.fig2_beamspreads.size() * kF64Bytes +
                  8 + r.fig2_oversubs.size() * kF64Bytes + 8;
  for (const std::vector<double>& row : r.fig2_grid) {
    n += 8 + row.size() * kF64Bytes;
  }
  n += 8;
  for (const core::Fig3Curve& curve : r.fig3) {
    n += kFig3CurveMinBytes + curve.points.size() * kLongTailPointBytes;
  }
  n += 8;
  for (const afford::PlanAffordability& p : r.fig4) {
    n += kPlanAffordabilityMinBytes + p.plan.name.size();
  }
  return n + 8 + 8;
}

SnapshotReader parse_expecting(std::string_view file, ArtifactKind kind) {
  SnapshotReader reader = SnapshotReader::parse(file);
  if (reader.kind() != kind) {
    throw SnapshotError("LDSNAP: expected a " + std::string(to_string(kind)) +
                        " snapshot, found " +
                        std::string(to_string(reader.kind())));
  }
  return reader;
}

}  // namespace

std::string serialize(const demand::DemandProfile& profile) {
  SnapshotWriter w(ArtifactKind::kProfile,
                   counties_bytes(profile.counties()) + 8 +
                       profile.cells().size() * kCellBytes);
  encode_counties(w.section("counties"), profile.counties());
  encode_cells(w.section("cells"), profile.cells());
  return std::move(w).finish();
}

demand::DemandProfile deserialize_profile(std::string_view file) {
  const SnapshotReader reader = parse_expecting(file, ArtifactKind::kProfile);
  demand::CountyTable counties = decode_counties(reader.section("counties"));
  std::vector<demand::CellDemand> cells =
      decode_cells(reader.section("cells"), counties.size());
  return demand::DemandProfile(std::move(cells), std::move(counties));
}

std::string serialize(const core::AnalysisResults& results) {
  SnapshotWriter sw(ArtifactKind::kAnalysis, analysis_bytes(results));
  ByteWriter& w = sw.section("analysis");
  [[maybe_unused]] const std::size_t start = w.size();
  // Table 1, in declaration order.
  const core::Table1Summary& t1 = results.table1;
  w.f64(t1.ut_downlink_mhz);
  w.f64(t1.total_mhz);
  w.u32(t1.ut_beams);
  w.u32(t1.total_beams);
  w.f64(t1.spectral_efficiency);
  w.f64(t1.max_cell_capacity_gbps);
  w.u32(t1.peak_cell_users);
  w.f64(t1.required_down_mbps);
  w.f64(t1.required_up_mbps);
  w.f64(t1.peak_cell_demand_gbps);
  w.f64(t1.max_oversubscription);
  // F1.
  const core::OversubscriptionReport& f1 = results.f1;
  w.f64(f1.cell_capacity_gbps);
  w.f64(f1.peak_oversubscription);
  w.u32(f1.max_locations_at_cap);
  w.u64(f1.total_locations);
  w.u64(f1.locations_above_cap);
  w.u64(f1.locations_unservable_at_cap);
  w.u32(f1.cells_above_cap);
  w.f64(f1.servable_fraction_at_cap);
  // Table 2.
  w.count(results.table2.size(), kTable2RowBytes);
  for (const core::Table2Row& row : results.table2) {
    w.f64(row.beamspread);
    w.f64(row.satellites_full_service);
    w.f64(row.satellites_capped);
  }
  // Figure 2.
  encode_f64_vec(w, results.fig2_beamspreads);
  encode_f64_vec(w, results.fig2_oversubs);
  w.count(results.fig2_grid.size(), 8);
  for (const std::vector<double>& row : results.fig2_grid) {
    encode_f64_vec(w, row);
  }
  // Figure 3.
  w.count(results.fig3.size(), kFig3CurveMinBytes);
  for (const core::Fig3Curve& curve : results.fig3) {
    w.f64(curve.beamspread);
    w.f64(curve.oversub);
    encode_longtail(w, curve.points);
  }
  // Figure 4.
  w.count(results.fig4.size(), kPlanAffordabilityMinBytes);
  for (const afford::PlanAffordability& p : results.fig4) {
    encode_plan_affordability(w, p);
  }
  w.f64(results.fig4_lifeline_threshold_income);
  w.f64(results.fig4_starlink_threshold_income);
  assert(w.size() - start == analysis_bytes(results));
  return std::move(sw).finish();
}

core::AnalysisResults deserialize_analysis(std::string_view file) {
  const SnapshotReader reader = parse_expecting(file, ArtifactKind::kAnalysis);
  ByteReader r(reader.section("analysis"));
  core::AnalysisResults out;
  core::Table1Summary& t1 = out.table1;
  t1.ut_downlink_mhz = r.f64();
  t1.total_mhz = r.f64();
  t1.ut_beams = r.u32();
  t1.total_beams = r.u32();
  t1.spectral_efficiency = r.f64();
  t1.max_cell_capacity_gbps = r.f64();
  t1.peak_cell_users = r.u32();
  t1.required_down_mbps = r.f64();
  t1.required_up_mbps = r.f64();
  t1.peak_cell_demand_gbps = r.f64();
  t1.max_oversubscription = r.f64();
  core::OversubscriptionReport& f1 = out.f1;
  f1.cell_capacity_gbps = r.f64();
  f1.peak_oversubscription = r.f64();
  f1.max_locations_at_cap = r.u32();
  f1.total_locations = r.u64();
  f1.locations_above_cap = r.u64();
  f1.locations_unservable_at_cap = r.u64();
  f1.cells_above_cap = r.u32();
  f1.servable_fraction_at_cap = r.f64();
  const std::size_t n_table2 = r.count(kTable2RowBytes);
  RecordReader table2 = r.records(n_table2, kTable2RowBytes);
  out.table2.reserve(n_table2);
  for (std::size_t i = 0; i < n_table2; ++i) {
    core::Table2Row row;
    row.beamspread = table2.f64();
    row.satellites_full_service = table2.f64();
    row.satellites_capped = table2.f64();
    out.table2.push_back(row);
  }
  out.fig2_beamspreads = decode_f64_vec(r);
  out.fig2_oversubs = decode_f64_vec(r);
  const std::size_t n_grid = r.count(8);
  out.fig2_grid.reserve(n_grid);
  for (std::size_t i = 0; i < n_grid; ++i) {
    out.fig2_grid.push_back(decode_f64_vec(r));
  }
  const std::size_t n_fig3 = r.count(kFig3CurveMinBytes);
  out.fig3.reserve(n_fig3);
  for (std::size_t i = 0; i < n_fig3; ++i) {
    core::Fig3Curve curve;
    curve.beamspread = r.f64();
    curve.oversub = r.f64();
    curve.points = decode_longtail(r);
    out.fig3.push_back(std::move(curve));
  }
  const std::size_t n_fig4 = r.count(kPlanAffordabilityMinBytes);
  out.fig4.reserve(n_fig4);
  for (std::size_t i = 0; i < n_fig4; ++i) {
    out.fig4.push_back(decode_plan_affordability(r));
  }
  out.fig4_lifeline_threshold_income = r.f64();
  out.fig4_starlink_threshold_income = r.f64();
  r.expect_exhausted("analysis section");
  return out;
}

std::string serialize(const std::vector<sim::EpochCoverage>& epochs) {
  SnapshotWriter sw(ArtifactKind::kEpochs, 8 + epochs.size() * kCoverageBytes);
  ByteWriter& w = sw.section("epochs");
  w.count(epochs.size(), kCoverageBytes);
  for (const sim::EpochCoverage& e : epochs) write_coverage(w, e);
  return std::move(sw).finish();
}

std::vector<sim::EpochCoverage> deserialize_epochs(std::string_view file) {
  const SnapshotReader reader = parse_expecting(file, ArtifactKind::kEpochs);
  ByteReader r(reader.section("epochs"));
  const std::size_t n = r.count(kCoverageBytes);
  RecordReader rec = r.records(n, kCoverageBytes);
  std::vector<sim::EpochCoverage> epochs;
  epochs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) epochs.push_back(read_coverage(rec));
  r.expect_exhausted("epochs section");
  return epochs;
}

std::string serialize(const market::MarketReport& report) {
  const market::FairnessReport& f = report.fairness;
  std::size_t bytes = 1 + 8 + 8 + 8 + 8 +
                      f.operators.size() * kOperatorFairnessBytes + 5 * 8;
  for (const market::OperatorOutcome& op : report.operators) {
    bytes += kOperatorMinBytes + op.name.size() +
             op.affordability.plan.name.size();
  }
  SnapshotWriter sw(ArtifactKind::kMarketReport, bytes);
  ByteWriter& ops = sw.section("operators");
  ops.u8(static_cast<std::uint8_t>(report.policy));
  ops.f64(report.beamspread);
  ops.f64(report.oversub_cap);
  ops.count(report.operators.size(), kOperatorMinBytes);
  for (const market::OperatorOutcome& op : report.operators) {
    ops.str(op.name);
    ops.f64(op.economic_share);
    write_sizing(ops, op.full);
    write_sizing(ops, op.capped);
    ops.f64(op.served_cell_fraction);
    ops.f64(op.served_location_fraction);
    ops.f64(op.cost_per_location_year_usd);
    encode_plan_affordability(ops, op.affordability);
  }

  ByteWriter& fair = sw.section("fairness");
  fair.count(f.operators.size(), kOperatorFairnessBytes);
  for (const market::OperatorFairness& of : f.operators) {
    fair.u64(of.cells_won);
    fair.u64(of.cells_served);
    fair.u64(of.locations_served);
  }
  fair.f64(f.jain_served_locations);
  fair.u64(f.unserved_cells);
  fair.u64(f.unserved_locations);
  fair.u64(f.capacity_limited_cells);
  fair.u64(f.split_limited_cells);
  return std::move(sw).finish();
}

market::MarketReport deserialize_market_report(std::string_view file) {
  const SnapshotReader reader =
      parse_expecting(file, ArtifactKind::kMarketReport);
  market::MarketReport out;

  ByteReader ops(reader.section("operators"));
  const std::uint8_t policy = ops.u8();
  if (policy > static_cast<std::uint8_t>(market::SplitPolicy::kFairShare)) {
    throw SnapshotError("market_report: unknown split policy code " +
                        std::to_string(policy));
  }
  out.policy = static_cast<market::SplitPolicy>(policy);
  out.beamspread = ops.f64();
  out.oversub_cap = ops.f64();
  const std::size_t n_ops = ops.count(kOperatorMinBytes);
  out.operators.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    market::OperatorOutcome op;
    op.name = ops.str();
    op.economic_share = ops.f64();
    op.full = read_sizing(ops);
    op.capped = read_sizing(ops);
    op.served_cell_fraction = ops.f64();
    op.served_location_fraction = ops.f64();
    op.cost_per_location_year_usd = ops.f64();
    op.affordability = decode_plan_affordability(ops);
    out.operators.push_back(std::move(op));
  }
  ops.expect_exhausted("market_report operators section");

  ByteReader fair(reader.section("fairness"));
  market::FairnessReport& f = out.fairness;
  const std::size_t n_fair = fair.count(kOperatorFairnessBytes);
  if (n_fair != n_ops) {
    throw SnapshotError(
        "market_report: fairness rows (" + std::to_string(n_fair) +
        ") do not match operator count (" + std::to_string(n_ops) + ")");
  }
  RecordReader rows = fair.records(n_fair, kOperatorFairnessBytes);
  f.operators.reserve(n_fair);
  for (std::size_t i = 0; i < n_fair; ++i) {
    market::OperatorFairness of;
    of.cells_won = rows.u64();
    of.cells_served = rows.u64();
    of.locations_served = rows.u64();
    f.operators.push_back(of);
  }
  f.jain_served_locations = fair.f64();
  f.unserved_cells = fair.u64();
  f.unserved_locations = fair.u64();
  f.capacity_limited_cells = fair.u64();
  f.split_limited_cells = fair.u64();
  fair.expect_exhausted("market_report fairness section");

  return out;
}

}  // namespace leodivide::snapshot
