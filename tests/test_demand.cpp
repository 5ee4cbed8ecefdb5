// Unit tests for leodivide::demand — the reliable-broadband definition,
// counties, the per-cell profile and its CSV codec, and the calibrated
// synthetic generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "leodivide/demand/calibration.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/geo/us_outline.hpp"
#include "leodivide/io/csv.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/snapshot/artifacts.hpp"
#include "leodivide/snapshot/format.hpp"
#include "leodivide/stats/percentile.hpp"
#include "leodivide/stats/rng.hpp"

namespace leodivide::demand {
namespace {

// Shared full-scale profile: generated once for the whole test binary (the
// generator is deterministic, so this is safe and fast).
const DemandProfile& national_profile() {
  static const DemandProfile profile =
      SyntheticGenerator(demand::GeneratorConfig{}).generate_profile();
  return profile;
}

// --------------------------------------------------------------- location ----

TEST(Location, ReliableBroadbandThresholds) {
  EXPECT_TRUE(is_reliable({100.0, 20.0}));
  EXPECT_TRUE(is_reliable({940.0, 35.0}));
  EXPECT_FALSE(is_reliable({99.9, 20.0}));
  EXPECT_FALSE(is_reliable({100.0, 19.9}));
  EXPECT_FALSE(is_reliable({25.0, 3.0}));
}

TEST(Location, DemandIsHundredMegabits) {
  EXPECT_DOUBLE_EQ(location_demand_gbps(), 0.1);
}

// ----------------------------------------------------------------- county ----

TEST(CountyTableTest, AddFindAndTotals) {
  CountyTable table;
  const auto i = table.add({"90001", {36.0, -90.0}, 50000.0, 100});
  const auto j = table.add({"90002", {37.0, -91.0}, 60000.0, 200});
  EXPECT_EQ(table.size(), 2U);
  EXPECT_EQ(table.find("90002"), static_cast<std::int64_t>(j));
  EXPECT_EQ(table.find("99999"), -1);
  EXPECT_EQ(table.at(i).fips, "90001");
}

TEST(CountyTableTest, RejectsDuplicatesAndBadIndex) {
  CountyTable table;
  table.add({"90001", {}, 1.0, 0});
  EXPECT_THROW(table.add({"90001", {}, 2.0, 0}), std::invalid_argument);
  EXPECT_THROW((void)table.at(5), std::out_of_range);
}

TEST(CountyTableTest, FipsIndexSurvivesGrowth) {
  // Thousands of adds grow the FIPS index many times; every county must
  // stay findable at its insertion index and duplicates stay rejected.
  CountyTable table;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(table.add({std::to_string(10000 + i), {}, 1.0, 0}),
              static_cast<std::uint32_t>(i));
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(table.find(std::to_string(10000 + i)), i);
  }
  EXPECT_EQ(table.find("9999"), -1);
  EXPECT_EQ(table.find(""), -1);
  EXPECT_THROW(table.add({"14999", {}, 2.0, 0}), std::invalid_argument);
  EXPECT_EQ(table.size(), 5000U);
  EXPECT_EQ(CountyTable().find("10000"), -1);
}

// ---------------------------------------------------------------- dataset ----

TEST(CellDemandTest, DemandScalesWithLocations) {
  CellDemand cd;
  cd.underserved = 5998;
  EXPECT_NEAR(cd.demand_gbps(), 599.8, 1e-9);
}

TEST(DemandProfileTest, RejectsBadCountyIndex) {
  CountyTable counties;
  counties.add({"90001", {}, 1.0, 0});
  std::vector<CellDemand> cells(1);
  cells[0].county_index = 7;
  EXPECT_THROW(DemandProfile(std::move(cells), std::move(counties)),
               std::invalid_argument);
}

TEST(DemandProfileTest, OrderingAndPeak) {
  CountyTable counties;
  counties.add({"90001", {}, 1.0, 0});
  std::vector<CellDemand> cells(3);
  cells[0].cell = hex::CellId(5, {0, 0});
  cells[0].underserved = 10;
  cells[1].cell = hex::CellId(5, {1, 0});
  cells[1].underserved = 30;
  cells[2].cell = hex::CellId(5, {2, 0});
  cells[2].underserved = 20;
  const DemandProfile profile(std::move(cells), std::move(counties));
  EXPECT_EQ(profile.peak_cell_count(), 30U);
  EXPECT_EQ(profile.total_locations(), 60U);
  const PeakCandidate peak = profile.peak_cell();
  ASSERT_TRUE(peak.found);
  EXPECT_EQ(peak.index, 1U);
  EXPECT_EQ(peak.count, 30U);
  EXPECT_EQ(peak.cell_bits, profile.cells()[1].cell.bits());
  // Partial candidates merge, in either order, to the whole-profile peak.
  PeakCandidate head, tail;
  head.consider(0, profile.cells()[0]);
  for (std::size_t i = 1; i < 3; ++i) tail.consider(i, profile.cells()[i]);
  PeakCandidate forward = head, backward = tail;
  forward.merge(tail);
  backward.merge(head);
  EXPECT_EQ(forward.index, 1U);
  EXPECT_EQ(backward.index, 1U);
  // An empty profile has no peak cell.
  EXPECT_FALSE(DemandProfile().peak_cell().found);
  EXPECT_EQ(DemandProfile().peak_cell_count(), 0U);
}

TEST(DemandProfileTest, PeakCountTieGoesToTheSmallerCellId) {
  CountyTable counties;
  counties.add({"90001", {}, 1.0, 0});
  std::vector<CellDemand> cells(4);
  cells[0].cell = hex::CellId(5, {7, 0});
  cells[0].underserved = 40;
  cells[1].cell = hex::CellId(5, {3, 0});  // smallest id among the 40s
  cells[1].underserved = 40;
  cells[2].cell = hex::CellId(5, {1, 0});  // smallest id overall
  cells[2].underserved = 12;
  cells[3].cell = hex::CellId(5, {5, 0});
  cells[3].underserved = 40;
  ASSERT_LT(cells[1].cell, cells[0].cell);
  ASSERT_LT(cells[1].cell, cells[3].cell);
  const DemandProfile profile(std::move(cells), std::move(counties));
  EXPECT_EQ(profile.peak_cell().index, 1U);
  // The id decides, not the scan order: fold the cells back to front.
  PeakCandidate reversed;
  for (std::size_t i = profile.cell_count(); i-- > 0;) {
    reversed.consider(i, profile.cells()[i]);
  }
  EXPECT_EQ(reversed.index, 1U);
}

// What a CSV round trip must give back: the same records, with every double
// read back from its six-decimal text exactly as load_csv parses it.
double csv_quantized(double v) {
  io::NumberBuffer buf;
  return io::field_to_double(io::fixed6_text(buf, v), "test");
}

std::vector<County> csv_quantized_counties(const CountyTable& counties) {
  std::vector<County> out = counties.all();
  for (County& k : out) {
    k.centroid = {csv_quantized(k.centroid.lat_deg),
                  csv_quantized(k.centroid.lon_deg)};
    k.median_income_usd = csv_quantized(k.median_income_usd);
  }
  return out;
}

void expect_profile_round_trip(const DemandProfile& profile) {
  std::ostringstream cells_out, counties_out;
  profile.save_csv(cells_out, counties_out);
  std::istringstream cells_in(cells_out.str()), counties_in(counties_out.str());
  const DemandProfile back = DemandProfile::load_csv(cells_in, counties_in);
  std::vector<CellDemand> expected = profile.cells();
  for (CellDemand& c : expected) {
    c.center = {csv_quantized(c.center.lat_deg),
                csv_quantized(c.center.lon_deg)};
  }
  EXPECT_TRUE(back.cells() == expected);
  EXPECT_TRUE(back.counties().all() ==
              csv_quantized_counties(profile.counties()));
}

TEST(DemandProfileTest, CsvRoundTrip) {
  expect_profile_round_trip(
      SyntheticGenerator({.seed = 7, .scale = 0.002}).generate_profile());
  expect_profile_round_trip(national_profile());
}

constexpr const char* kCellHeader = "cell_id,lat,lon,underserved,county_index";
constexpr const char* kOneCounty =
    "fips,lat,lon,median_income_usd,underserved\n"
    "90001,36.000000,-90.000000,50000.000000,1\n";

// The fields of a valid cells-CSV record for row `i` (1-based, after the
// header), one string per field.
std::vector<std::string> cell_fields(std::size_t i) {
  return {hex::CellId(5, {static_cast<std::int32_t>(i), 0}).to_string(),
          "36.000000", "-90.000000", std::to_string(i % 5000 + 1), "0"};
}

std::string join_record(const std::vector<std::string>& fields,
                        const char* terminator = "\n") {
  std::string out;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (f > 0) out += ',';
    out += fields[f];
  }
  return out + terminator;
}

// A cells CSV of `rows` records; `edit(i, fields)` may rewrite row i.
template <typename Edit>
std::string cells_csv(std::size_t rows, const Edit& edit) {
  std::string out = std::string(kCellHeader) + "\n";
  for (std::size_t i = 1; i <= rows; ++i) {
    std::vector<std::string> fields = cell_fields(i);
    edit(i, fields);
    out += join_record(fields);
  }
  return out;
}

// The message load_csv raises on `cells` and `counties`, or "" when they
// load.
std::string load_error(const std::string& cells,
                       const std::string& counties = kOneCounty) {
  std::istringstream cells_in(cells), counties_in(counties);
  try {
    (void)DemandProfile::load_csv(cells_in, counties_in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

constexpr std::size_t kErrorOrderRows = 20000;

TEST(DemandProfileTest, CsvFirstBadRecordInFileOrderWins) {
  const std::string csv =
      cells_csv(kErrorOrderRows, [](std::size_t i, auto& fields) {
        if (i == 3) fields.pop_back();
        if (i == 15000) fields[1] = "north";
      });
  EXPECT_EQ(load_error(csv), "cell CSV: bad width");
  const std::string late_only =
      cells_csv(kErrorOrderRows, [](std::size_t i, auto& fields) {
        if (i == 15000) fields[1] = "north";
      });
  EXPECT_EQ(load_error(late_only), "CSV: bad double for lat: 'north'");
}

TEST(DemandProfileTest, CsvFieldErrorBeatsUnterminatedQuoteAtEof) {
  std::string csv = cells_csv(kErrorOrderRows, [](std::size_t i, auto& fields) {
    if (i == 7) fields[2] = "west";
  });
  csv += "\"never closed,1,2\n";
  EXPECT_EQ(load_error(csv), "CSV: bad double for lon: 'west'");
  const std::string unterminated =
      cells_csv(kErrorOrderRows, [](std::size_t, auto&) {}) + "\"open,1\n";
  EXPECT_EQ(load_error(unterminated),
            "CSV: unterminated quoted record at EOF");
}

TEST(DemandProfileTest, CsvCrlfBlankLinesAndQuotesLoadLikeLf) {
  const auto load = [](const std::string& cells) {
    std::istringstream cells_in(cells), counties_in(kOneCounty);
    return DemandProfile::load_csv(cells_in, counties_in);
  };
  const std::string lf =
      cells_csv(kErrorOrderRows, [](std::size_t, auto&) {});
  std::string mixed = std::string(kCellHeader) + "\r\n\n";
  for (std::size_t i = 1; i <= kErrorOrderRows; ++i) {
    std::vector<std::string> fields = cell_fields(i);
    if (i % 97 == 0) fields[1] = "\"" + fields[1] + "\"";
    mixed += join_record(fields, i % 2 == 0 ? "\r\n" : "\n");
    if (i % 1000 == 0) mixed += "\r\n\n";
  }
  const DemandProfile expected = load(lf);
  const DemandProfile got = load(mixed);
  ASSERT_EQ(got.cell_count(), kErrorOrderRows);
  EXPECT_TRUE(got.cells() == expected.cells());
  EXPECT_TRUE(got.counties().all() == expected.counties().all());
}

TEST(DemandProfileTest, CsvCountsAboveUint32AreTypedErrors) {
  // Cast to 32 bits, 2^32 + 1 would load as 1 and 2^32 as county 0.
  EXPECT_EQ(load_error(cells_csv(3, [](std::size_t i, auto& fields) {
              if (i == 2) fields[3] = "4294967297";
            })),
            "CSV: bad integer for count: '4294967297'");
  EXPECT_EQ(load_error(cells_csv(3, [](std::size_t i, auto& fields) {
              if (i == 2) fields[4] = "4294967296";
            })),
            "CSV: bad integer for county: '4294967296'");
}

TEST(DemandProfileTest, CsvNonFiniteDoublesAreTypedErrors) {
  const std::string cells = cells_csv(3, [](std::size_t, auto&) {});
  ASSERT_EQ(load_error(cells), "");
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    const auto bad_cell = [&bad](std::size_t field) {
      return cells_csv(3, [&bad, field](std::size_t i, auto& fields) {
        if (i == 2) fields[field] = bad;
      });
    };
    EXPECT_EQ(load_error(bad_cell(1)), "CSV: non-finite lat: '" + bad + "'");
    EXPECT_EQ(load_error(bad_cell(2)), "CSV: non-finite lon: '" + bad + "'");

    const auto bad_county = [&bad](std::size_t field) {
      std::vector<std::string> fields = {"90001", "36.000000", "-90.000000",
                                         "50000.000000", "1"};
      fields[field] = bad;
      return "fips,lat,lon,median_income_usd,underserved\n" +
             join_record(fields);
    };
    EXPECT_EQ(load_error(cells, bad_county(1)),
              "CSV: non-finite lat: '" + bad + "'");
    EXPECT_EQ(load_error(cells, bad_county(2)),
              "CSV: non-finite lon: '" + bad + "'");
    EXPECT_EQ(load_error(cells, bad_county(3)),
              "CSV: income must be finite and above zero: '" + bad + "'");
  }
  EXPECT_EQ(load_error(cells, "fips,lat,lon,median_income_usd,underserved\n"
                              "90001,36,-90,0,1\n"),
            "CSV: income must be finite and above zero: '0'");
}

TEST(DeltaApplierTest, IncomeMustBeFiniteAndAboveZero) {
  DemandProfile profile =
      SyntheticGenerator({.seed = 7, .scale = 0.002}).generate_profile();
  const hex::HexGrid grid;
  DeltaApplier applier(profile, grid, hex::kServiceCellResolution);
  const std::vector<County> before = profile.counties().all();
  DeltaOp op;
  op.kind = DeltaKind::kSetCountyIncome;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0}) {
    op.value = bad;
    EXPECT_THROW((void)applier.apply(op), std::invalid_argument) << bad;
    EXPECT_TRUE(profile.counties().all() == before);
  }
  op.value = 12345.0;
  EXPECT_TRUE(applier.apply(op).counties_changed);
  EXPECT_EQ(profile.counties().at(0).median_income_usd, 12345.0);
}

TEST(DemandProfileTest, CsvFirstBadRecordAcrossBlocksWins) {
  // ~6 MB, so both bad rows sit in the loader's second 4 MiB block.
  constexpr std::size_t kRows = 130000;
  const std::string csv = cells_csv(kRows, [](std::size_t i, auto& fields) {
    if (i == 110000) fields.push_back("extra");
    if (i == 120000) fields[1] = "north";
  });
  ASSERT_GT(csv.find(",extra"), io::CsvBlockReader::kDefaultBlockBytes);
  EXPECT_EQ(load_error(csv), "cell CSV: bad width");
  const std::string clean = cells_csv(kRows, [](std::size_t, auto&) {});
  std::istringstream cells_in(clean), counties_in(kOneCounty);
  const DemandProfile loaded = DemandProfile::load_csv(cells_in, counties_in);
  ASSERT_EQ(loaded.cell_count(), kRows);
  EXPECT_EQ(loaded.cells().back().cell.to_string(), cell_fields(kRows)[0]);
}

TEST(DemandProfileTest, CsvSaveIntoFailedStreamThrows) {
  const DemandProfile profile =
      SyntheticGenerator({.seed = 7, .scale = 0.002}).generate_profile();
  std::ostringstream cells, counties;
  cells.setstate(std::ios::badbit);
  EXPECT_THROW(profile.save_csv(cells, counties), std::runtime_error);
  std::ostringstream good_cells, bad_counties;
  bad_counties.setstate(std::ios::badbit);
  EXPECT_THROW(profile.save_csv(good_cells, bad_counties), std::runtime_error);
}

// Loads a one-county, one-cell profile whose cell_id field is `id`.
DemandProfile load_one_cell(const std::string& id) {
  std::istringstream cells("cell_id,lat,lon,underserved,county_index\n" + id +
                           ",36.000000,-90.000000,1,0\n");
  std::istringstream counties(
      "fips,lat,lon,median_income_usd,underserved\n"
      "90001,36.000000,-90.000000,50000.000000,1\n");
  return DemandProfile::load_csv(cells, counties);
}

// A bad id must surface as the typed CSV error every other field throws,
// never as a std::logic_error from the number parser or a silently
// different cell.
void expect_bad_cell_id(const std::string& id) {
  try {
    (void)load_one_cell(id);
    ADD_FAILURE() << "accepted cell id '" << id << "'";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("CSV: bad ", 0), 0U) << what;
    EXPECT_NE(what.find(" for cell_id: '" + id + "'"), std::string::npos)
        << what;
  }
}

TEST(DemandProfileTest, CsvCellIdParsesWholeHexField) {
  const hex::CellId id(5, {123, -45});
  EXPECT_EQ(load_one_cell(id.to_string()).cells()[0].cell, id);
}

TEST(DemandProfileTest, CsvCellIdTrailingGarbageIsTypedError) {
  expect_bad_cell_id(hex::CellId(5, {123, -45}).to_string() + "zz");
  expect_bad_cell_id("8a2bzz");
}

TEST(DemandProfileTest, CsvEmptyCellIdIsTypedError) {
  expect_bad_cell_id("");
}

TEST(DemandProfileTest, CsvOverflowingCellIdIsTypedError) {
  expect_bad_cell_id("10000000000000000");  // 2^64: seventeen hex digits
}

TEST(DemandProfileTest, CsvBadResolutionNibbleIsTypedError) {
  // Every 4-bit nibble is a resolution in [0, 15], so the one id from_bits
  // cannot turn into a usable cell is the reserved all-ones pattern.
  expect_bad_cell_id("ffffffffffffffff");
}

// ------------------------------------------------------------- calibration ----

TEST(Calibration, PaperConstantsAreConsistent) {
  // The planted peaks sum to the published 22,428 and top out at 5,998.
  std::uint64_t sum = 0;
  for (std::uint32_t c : paper::kPlantedPeakCells) sum += c;
  EXPECT_EQ(sum, paper::kPeakCellLocationSum);
  EXPECT_EQ(*std::max_element(paper::kPlantedPeakCells.begin(),
                              paper::kPlantedPeakCells.end()),
            static_cast<std::uint32_t>(paper::kPerCellMax));
  // 22,428 is 0.48% of the total (the paper's own derivation).
  EXPECT_NEAR(static_cast<double>(paper::kPeakCellLocationSum) /
                  static_cast<double>(paper::kTotalLocations),
              0.0048, 1e-4);
}

TEST(Calibration, CellQuantilePinsPaperPercentiles) {
  const auto q = paper::cell_count_quantile();
  EXPECT_NEAR(q(0.90), paper::kPerCellP90, 1e-6);
  EXPECT_NEAR(q(0.99), paper::kPerCellP99, 1e-6);
  EXPECT_NEAR(q(0.36), 62.0, 1e-6);
  // No generated cell may exceed the 20:1 limit of 3465 locations.
  EXPECT_LT(q(1.0), 3465.0);
}

TEST(Calibration, BindingLatitudesReproduceTable2Constants) {
  const double area = hex::cell_area_km2(5);
  const double lat_full =
      paper::binding_latitude_for_k(paper::kKFullService, area);
  const double lat_cap = paper::binding_latitude_for_k(paper::kK20To1, area);
  // Both binding cells sit in the mid-30s latitudes, full-service slightly
  // north of the 20:1 cell (larger K = further from the inclination).
  EXPECT_NEAR(lat_full, 37.0, 0.5);
  EXPECT_NEAR(lat_cap, 36.4, 0.5);
  EXPECT_GT(lat_full, lat_cap);
}

TEST(Calibration, BindingLatitudeRejectsUnreachableK) {
  EXPECT_THROW((void)paper::binding_latitude_for_k(1e12, 252.9),
               std::domain_error);
  EXPECT_THROW((void)paper::binding_latitude_for_k(-1.0, 252.9),
               std::invalid_argument);
}

TEST(Calibration, IncomeQuantilePinsAffordabilityAnchors) {
  const auto q = paper::income_quantile();
  EXPECT_NEAR(q(paper::kFractionBelowLifelineThreshold), 66450.0, 1.0);
  EXPECT_NEAR(q(paper::kFractionBelowStarlinkThreshold), 72000.0, 1.0);
  EXPECT_NEAR(q(0.0), paper::kMinCountyIncomeUsd, 1.0);
  // Almost no mass below the $30k Spectrum threshold: Q(1e-4) >= $29,999
  // means F($29,999) <= 1e-4.
  EXPECT_GE(q(1e-4), 29999.0);
}

// --------------------------------------------------------------- generator ----

TEST(Generator, NationalTotalsMatchPaper) {
  const DemandProfile& p = national_profile();
  EXPECT_EQ(p.total_locations(), paper::kTotalLocations);
  EXPECT_EQ(p.peak_cell_count(), 5998U);
}

TEST(Generator, NationalPercentilesMatchFig1) {
  const auto counts = national_profile().counts_as_doubles();
  EXPECT_NEAR(stats::percentile(counts, 90.0), 552.0, 15.0);
  EXPECT_NEAR(stats::percentile(counts, 99.0), 1437.0, 40.0);
}

TEST(Generator, ExactlyFiveCellsExceedTheCap) {
  const DemandProfile& p = national_profile();
  std::size_t above = 0;
  std::uint64_t above_sum = 0;
  for (const auto& c : p.cells()) {
    if (c.underserved > 3465) {
      ++above;
      above_sum += c.underserved;
    }
  }
  EXPECT_EQ(above, 5U);
  EXPECT_EQ(above_sum, paper::kPeakCellLocationSum);
}

TEST(Generator, HeavyCellsRespectLatitudeFloor) {
  const GeneratorConfig config;
  for (const auto& c : national_profile().cells()) {
    if (c.underserved > 650 && c.underserved <= 3465) {
      EXPECT_GE(c.center.lat_deg, config.heavy_cell_min_lat_deg)
          << "cell with " << c.underserved << " locations";
    }
  }
}

TEST(Generator, PlantedBindingCellsSitAtCalibratedLatitudes) {
  const auto targets = SyntheticGenerator::planted_targets(5);
  const DemandProfile& p = national_profile();
  // The 5998 cell sits at the full-service binding latitude target.
  for (const auto& c : p.cells()) {
    if (c.underserved == 5998) {
      EXPECT_NEAR(c.center.lat_deg, targets[0].lat_deg, 0.15);
    }
    if (c.underserved == 4580) {
      EXPECT_NEAR(c.center.lat_deg, targets[1].lat_deg, 0.15);
    }
  }
}

TEST(Generator, IsDeterministic) {
  const SyntheticGenerator a({.seed = 11, .scale = 0.005});
  const SyntheticGenerator b({.seed = 11, .scale = 0.005});
  const DemandProfile pa = a.generate_profile();
  const DemandProfile pb = b.generate_profile();
  ASSERT_EQ(pa.cell_count(), pb.cell_count());
  for (std::size_t i = 0; i < pa.cell_count(); ++i) {
    EXPECT_EQ(pa.cells()[i].cell, pb.cells()[i].cell);
    EXPECT_EQ(pa.cells()[i].underserved, pb.cells()[i].underserved);
  }
}

TEST(Generator, DifferentSeedsChangeGeography) {
  const DemandProfile pa =
      SyntheticGenerator({.seed = 1, .scale = 0.005}).generate_profile();
  const DemandProfile pb =
      SyntheticGenerator({.seed = 2, .scale = 0.005}).generate_profile();
  ASSERT_EQ(pa.cell_count(), pb.cell_count());
  std::size_t same = 0;
  for (std::size_t i = 0; i < pa.cell_count(); ++i) {
    if (pa.cells()[i].cell == pb.cells()[i].cell) ++same;
  }
  EXPECT_LT(same, pa.cell_count() / 2);
}

TEST(Generator, ScaleShrinksTotalsProportionally) {
  const DemandProfile p =
      SyntheticGenerator({.scale = 0.01}).generate_profile();
  EXPECT_NEAR(static_cast<double>(p.total_locations()),
              0.01 * static_cast<double>(paper::kTotalLocations), 5.0);
}

TEST(Generator, SmallScaleSkipsPlanting) {
  // 0.5% of the national total is ~23k locations, close to the planted sum;
  // planting is suppressed below 2x the planted mass.
  const DemandProfile p =
      SyntheticGenerator({.scale = 0.005}).generate_profile();
  EXPECT_LT(p.peak_cell_count(), 3465U);
}

TEST(Generator, CellsAreInsideConus) {
  for (const auto& c : national_profile().cells()) {
    EXPECT_TRUE(geo::conus_outline().contains(c.center))
        << c.center.lat_deg << "," << c.center.lon_deg;
  }
}

TEST(Generator, CountiesCoverAllCells) {
  const DemandProfile& p = national_profile();
  std::uint64_t by_county = 0;
  for (const auto& county : p.counties().all()) {
    by_county += county.underserved_locations;
  }
  EXPECT_EQ(by_county, p.total_locations());
  for (const auto& c : p.cells()) {
    EXPECT_LT(c.county_index, p.counties().size());
  }
}

TEST(Generator, CountyIncomesAreWithinCalibratedRange) {
  for (const auto& county : national_profile().counties().all()) {
    EXPECT_GE(county.median_income_usd, paper::kMinCountyIncomeUsd - 1.0);
    EXPECT_LE(county.median_income_usd, paper::kMaxCountyIncomeUsd + 1.0);
  }
}

TEST(Generator, RejectsBadConfig) {
  EXPECT_THROW(SyntheticGenerator({.scale = 0.0}), std::invalid_argument);
  EXPECT_THROW(SyntheticGenerator({.scale = 1.5}), std::invalid_argument);
  EXPECT_THROW(SyntheticGenerator({.scale = 1e-9}), std::invalid_argument);
  EXPECT_THROW(SyntheticGenerator({.scale = std::nan("")}),
               std::invalid_argument);
  EXPECT_THROW(SyntheticGenerator({.resolution = 3, .county_resolution = 3}),
               std::invalid_argument);
}

// The smallest scale whose location total rounds to one still generates;
// below it the total is zero, which no cell count can reach (generation
// once spun on it), so the constructor rejects it.
TEST(Generator, SmallestScaleGivesOneLocation) {
  const double one = 1.0 / static_cast<double>(paper::kTotalLocations);
  const DemandProfile p = SyntheticGenerator({.scale = one}).generate_profile();
  EXPECT_EQ(p.total_locations(), 1U);
  EXPECT_EQ(p.cell_count(), 1U);
  EXPECT_THROW(SyntheticGenerator({.scale = 0.49 * one}),
               std::invalid_argument);
}

TEST(Generator, CliFlagsParseWholeFields) {
  GeneratorConfig config;
  {
    char a0[] = "prog", a1[] = "--scale", a2[] = "0.25", a3[] = "--seed=7";
    char* argv[] = {a0, a1, a2, a3};
    int i = 1;
    EXPECT_TRUE(parse_cli_arg(4, argv, i, config));
    EXPECT_EQ(i, 2);
    i = 3;
    EXPECT_TRUE(parse_cli_arg(4, argv, i, config));
    EXPECT_EQ(config.scale, 0.25);
    EXPECT_EQ(config.seed, 7U);
  }
  for (const char* bad : {"--scale=0.01x", "--scale=0", "--scale=-1",
                          "--scale=nan", "--scale=1.5", "--scale=1e-9",
                          "--seed=-1",
                          "--seed=", "--seed=18446744073709551616"}) {
    SCOPED_TRACE(bad);
    std::string arg = bad;
    char a0[] = "prog";
    char* argv[] = {a0, arg.data()};
    int i = 1;
    EXPECT_THROW((void)parse_cli_arg(2, argv, i, config), std::runtime_error);
  }
  char a0[] = "prog", a1[] = "--scales=1";
  char* argv[] = {a0, a1};
  int i = 1;
  EXPECT_FALSE(parse_cli_arg(2, argv, i, config));
}

TEST(Generator, HeavyCellFloorUnreachableThrows) {
  // No CONUS cell lies at or above 80°N, so the first heavy count finds no
  // slot: generation must fail with the typed error after one pass over
  // the shuffle, not spin.
  const SyntheticGenerator gen({.scale = 0.05, .heavy_cell_min_lat_deg = 80.0});
  try {
    (void)gen.generate_profile();
    ADD_FAILURE() << "generated a profile above an unreachable floor";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ran out of cells"),
              std::string::npos)
        << e.what();
  }
}

// FNV-1a digests of the generated profile's LDSNAP blob and of its two CSV
// files. Every paper number downstream derives from these bytes, so they
// are pinned at one and at four threads.
TEST(Generator, GoldenProfileAndCsvBytes) {
  struct Golden {
    GeneratorConfig config;
    std::uint64_t blob, cells_csv, counties_csv;
  };
  // The last two rows cover what the default-shaped rows miss: a profile
  // without planted peaks, and a finer resolution / county resolution pair
  // whose first two planted targets fall outside CONUS (asserted below), so
  // the nearest-free-cell search cannot start from the target's own cell.
  const Golden kGolden[] = {
      {{.seed = 42, .scale = 1.0}, 0xce5f412e27b6971dULL,
       0x1c4f89dcd523bd76ULL, 0x0a00cadb6c43e81bULL},
      {{.seed = 42, .scale = 0.05}, 0x5ffa52ae8684fc62ULL,
       0x7f3e054ab6d86236ULL, 0xeb70693c240b3b1aULL},
      {{.seed = 7, .scale = 1.0}, 0x855a0b7c4363f6d1ULL,
       0x00df212b48eff6b1ULL, 0x33d73e71dfa0dc1dULL},
      {{.seed = 7, .scale = 0.05}, 0xcc9310dc31866165ULL,
       0x98b0797e792c633fULL, 0x3904a9d72893a54fULL},
      {{.seed = 42, .scale = 0.05, .plant_peak_cells = false},
       0xbdf78580cc48b196ULL, 0xa5e838532650215aULL, 0xf36ef8928d4bfa6eULL},
      {{.seed = 7, .resolution = 6, .county_resolution = 4, .scale = 0.05},
       0x9039022ebdf9cae3ULL, 0x32f81d1abe3a2e00ULL, 0x67afd0a5c6ad0267ULL},
  };
  const auto fine_targets = SyntheticGenerator::planted_targets(6);
  EXPECT_FALSE(geo::conus_outline().contains(fine_targets[0]));
  EXPECT_FALSE(geo::conus_outline().contains(fine_targets[1]));
  for (const std::size_t threads : {1U, 4U}) {
    runtime::ThreadPool pool(threads);
    for (const Golden& g : kGolden) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << g.config.seed << " scale " << g.config.scale
                   << " resolution " << g.config.resolution << "/"
                   << g.config.county_resolution << " plant "
                   << g.config.plant_peak_cells << " threads " << threads);
      const DemandProfile profile =
          SyntheticGenerator(g.config).generate_profile(pool);
      std::ostringstream cells, counties;
      profile.save_csv(cells, counties);
      EXPECT_EQ(snapshot::fnv1a64(snapshot::serialize(profile)), g.blob);
      EXPECT_EQ(snapshot::fnv1a64(cells.str()), g.cells_csv);
      EXPECT_EQ(snapshot::fnv1a64(counties.str()), g.counties_csv);
    }
  }
}

}  // namespace
}  // namespace leodivide::demand

// Appended: parametric region generator (demand/region.hpp).
#include "leodivide/demand/region.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::demand {
namespace {

TEST(Region, GeneratesExactTotals) {
  for (const RegionSpec& spec :
       {dense_compact_region(), sparse_expansive_region(),
        temperate_mixed_region()}) {
    const DemandProfile profile = RegionGenerator(spec).generate();
    EXPECT_EQ(profile.total_locations(), spec.total_locations) << spec.name;
    EXPECT_GT(profile.cell_count(), 0U);
    EXPECT_GT(profile.counties().size(), 0U);
  }
}

TEST(Region, CellsLieInsideOutline) {
  const RegionSpec spec = temperate_mixed_region();
  const DemandProfile profile = RegionGenerator(spec).generate();
  for (const auto& cell : profile.cells()) {
    EXPECT_TRUE(spec.outline.contains(cell.center));
  }
}

TEST(Region, IsDeterministicPerSeed) {
  const RegionSpec spec = dense_compact_region();
  const DemandProfile a = RegionGenerator(spec).generate();
  const DemandProfile b = RegionGenerator(spec).generate();
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t i = 0; i < a.cell_count(); ++i) {
    EXPECT_EQ(a.cells()[i].cell, b.cells()[i].cell);
    EXPECT_EQ(a.cells()[i].underserved, b.cells()[i].underserved);
  }
}

TEST(Region, CountyWeightsSumToTotal) {
  const DemandProfile profile =
      RegionGenerator(sparse_expansive_region()).generate();
  std::uint64_t sum = 0;
  for (const auto& county : profile.counties().all()) {
    sum += county.underserved_locations;
  }
  EXPECT_EQ(sum, profile.total_locations());
}

TEST(Region, IncomesFollowSpecRange) {
  const RegionSpec spec = dense_compact_region();
  const DemandProfile profile = RegionGenerator(spec).generate();
  for (const auto& county : profile.counties().all()) {
    EXPECT_GE(county.median_income_usd, spec.income_quantile(0.0) - 1.0);
    EXPECT_LE(county.median_income_usd, spec.income_quantile(1.0) + 1.0);
  }
}

TEST(Region, RejectsBadSpecs) {
  RegionSpec zero = temperate_mixed_region();
  zero.total_locations = 0;
  EXPECT_THROW(RegionGenerator{zero}, std::invalid_argument);
  RegionSpec bad_res = temperate_mixed_region();
  bad_res.county_resolution = bad_res.resolution;
  EXPECT_THROW(RegionGenerator{bad_res}, std::invalid_argument);
}

TEST(Region, TinyOutlineStillGenerates) {
  RegionSpec spec = temperate_mixed_region();
  spec.outline = geo::Polygon{std::vector<geo::GeoPoint>{
      {45.0, 8.0}, {45.6, 8.0}, {45.6, 8.8}, {45.0, 8.8}}};
  spec.total_locations = 5000;
  const DemandProfile profile = RegionGenerator(spec).generate();
  EXPECT_EQ(profile.total_locations(), 5000U);
}

// The temperate preset over an outline of ~16 cells.
RegionSpec tiny_outline_spec(std::uint64_t total_locations) {
  RegionSpec spec = temperate_mixed_region();
  spec.outline = geo::Polygon{std::vector<geo::GeoPoint>{
      {45.0, 8.0}, {45.6, 8.0}, {45.6, 8.8}, {45.0, 8.8}}};
  spec.total_locations = total_locations;
  return spec;
}

TEST(Region, TotalBeyondEveryCellsCapacityThrows) {
  // A tiny outline keeps its few cells, but no 32-bit count can hold 10^12
  // locations over them: a typed error, not a fix-up that never ends.
  const RegionSpec spec = tiny_outline_spec(1'000'000'000'000ULL);
  EXPECT_THROW((void)RegionGenerator(spec).generate(), std::invalid_argument);
}

TEST(Region, LargeSurplusOverFewCellsIsExact) {
  // Far more than the outline's few cells hold at the spec's mean: the
  // fix-up spreads the whole surplus, and the total is still exact.
  const RegionSpec spec = tiny_outline_spec(5'000'000);
  const DemandProfile profile = RegionGenerator(spec).generate();
  EXPECT_EQ(profile.total_locations(), spec.total_locations);
  std::uint64_t county_sum = 0;
  for (const auto& county : profile.counties().all()) {
    county_sum += county.underserved_locations;
  }
  EXPECT_EQ(county_sum, spec.total_locations);
}

TEST(Region, MoreThanTenThousandCountiesGetDistinctFips) {
  // Five-digit codes (lead digit + position) would repeat past 10,000
  // counties; such a table widens the position instead.
  RegionSpec spec = sparse_expansive_region();
  spec.resolution = 7;
  spec.county_resolution = 6;
  spec.total_locations = 3'000'000;
  const DemandProfile profile = RegionGenerator(spec).generate();
  ASSERT_GT(profile.counties().size(), 10000U);
  EXPECT_EQ(profile.counties().at(0).fips, "800000");
  EXPECT_EQ(profile.counties().at(10000).fips, "810000");
  EXPECT_EQ(profile.total_locations(), spec.total_locations);
}

TEST(Region, StratifiedCountsHitTheTotalWithinTheCap) {
  const stats::PiecewiseQuantile quantile{{{0.0, 1.0}, {1.0, 100.0}}};
  runtime::Executor& serial = runtime::serial_executor();
  for (const std::uint64_t total :
       {100ULL, 500ULL, 5050ULL, 9000ULL, 10000ULL}) {
    const std::vector<std::uint32_t> counts =
        stratified_counts(quantile, 100, total, 100, serial);
    std::uint64_t sum = 0;
    for (const std::uint32_t c : counts) {
      EXPECT_GE(c, 1U);
      EXPECT_LE(c, 100U);
      sum += c;
    }
    EXPECT_EQ(sum, total);
  }
  // Outside [n, n * max_count] the fix-up could never end.
  EXPECT_THROW((void)stratified_counts(quantile, 100, 99, 100, serial),
               std::invalid_argument);
  EXPECT_THROW((void)stratified_counts(quantile, 100, 10001, 100, serial),
               std::invalid_argument);
  EXPECT_THROW((void)stratified_counts(quantile, 0, 10, 100, serial),
               std::invalid_argument);
}

// Pins the region generator's bytes for every preset and for an outline
// too small for the spec, where the cell count is clamped to the region's.
TEST(Region, GoldenProfileAndCsvBytes) {
  RegionSpec tiny = temperate_mixed_region();
  tiny.outline = geo::Polygon{std::vector<geo::GeoPoint>{
      {45.0, 8.0}, {45.6, 8.0}, {45.6, 8.8}, {45.0, 8.8}}};
  tiny.total_locations = 5000;
  struct Golden {
    RegionSpec spec;
    std::uint64_t blob, cells_csv, counties_csv;
  };
  const Golden kGolden[] = {
      {dense_compact_region(), 0xa59538e0f16bda1dULL,
       0x0ae22179c40bc6b0ULL, 0x8f7888c30a3294fcULL},
      {sparse_expansive_region(), 0x047dfe235c97da1cULL,
       0x9d4ac4d9b61542f0ULL, 0xc56ed6cd5b63f1b5ULL},
      {temperate_mixed_region(), 0x1daf1f98d71bd0c9ULL,
       0x7de70d214d3eb12fULL, 0x8e8de876edbf6fc0ULL},
      {tiny, 0x309f18a3e3da5686ULL,
       0x526965df26dbebb7ULL, 0x4cb0ff9a8b5716cdULL},
  };
  for (const std::size_t threads : {1U, 4U}) {
    runtime::set_global_threads(threads);
    for (const Golden& g : kGolden) {
      SCOPED_TRACE(::testing::Message() << g.spec.name << " total "
                                        << g.spec.total_locations
                                        << " threads " << threads);
      const DemandProfile profile = RegionGenerator(g.spec).generate();
      std::ostringstream cells, counties;
      profile.save_csv(cells, counties);
      EXPECT_EQ(snapshot::fnv1a64(snapshot::serialize(profile)), g.blob);
      EXPECT_EQ(snapshot::fnv1a64(cells.str()), g.cells_csv);
      EXPECT_EQ(snapshot::fnv1a64(counties.str()), g.counties_csv);
    }
  }
  runtime::set_global_threads(0);  // restore the environment default
}

}  // namespace
}  // namespace leodivide::demand

// Appended: GeoJSON export (demand/geojson.hpp).
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "leodivide/demand/geojson.hpp"
#include "leodivide/runtime/executor.hpp"
#include "oracles/oracles.hpp"

namespace leodivide::demand {
namespace {

TEST(GeoJson, EmitsOneFeaturePerCell) {
  const SyntheticGenerator gen({.seed = 7, .scale = 0.002});
  const DemandProfile profile = gen.generate_profile();
  std::ostringstream out;
  write_geojson(out, profile, hex::HexGrid());
  const std::string s = out.str();
  std::size_t features = 0;
  for (std::size_t pos = 0;
       (pos = s.find("\"Feature\"", pos)) != std::string::npos; ++pos) {
    ++features;
  }
  EXPECT_EQ(features, profile.cell_count());
  EXPECT_NE(s.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(s.find("\"underserved\""), std::string::npos);
  EXPECT_NE(s.find("\"median_income_usd\""), std::string::npos);
}

TEST(GeoJson, MinLocationsFilters) {
  const SyntheticGenerator gen({.seed = 7, .scale = 0.002});
  const DemandProfile profile = gen.generate_profile();
  std::ostringstream all_out, some_out;
  write_geojson(all_out, profile, hex::HexGrid(), 0);
  write_geojson(some_out, profile, hex::HexGrid(), 500);
  EXPECT_GT(all_out.str().size(), some_out.str().size());
}

TEST(GeoJson, RingsAreClosedSevenVertexPolygons) {
  // Hexagon boundary + closing vertex = 7 coordinate pairs per ring.
  CountyTable counties;
  counties.add({"90001", {39.0, -98.0}, 50000.0, 10});
  std::vector<CellDemand> cells(1);
  const hex::HexGrid grid;
  cells[0].cell = grid.cell_of({39.0, -98.0}, 5);
  cells[0].center = grid.center_of(cells[0].cell);
  cells[0].underserved = 10;
  const DemandProfile profile(std::move(cells), std::move(counties));
  std::ostringstream out;
  write_geojson(out, profile, grid);
  const std::string s = out.str();
  // Count coordinate pairs "[-9..." inside the single ring: 7 closing
  // brackets pairs appear as "],[" separators -> 6 separators + ends.
  std::size_t pairs = 0;
  for (std::size_t pos = 0;
       (pos = s.find("],[", pos)) != std::string::npos; ++pos) {
    ++pairs;
  }
  EXPECT_EQ(pairs, 6U);
}

// A one-county profile with the given median income, holding one cell of
// 1,200 locations at (39, -98).
DemandProfile one_cell_profile(double income) {
  CountyTable counties;
  counties.add({"90001", {39.0, -98.0}, income, 1200});
  std::vector<CellDemand> cells(1);
  const hex::HexGrid grid;
  cells[0].cell = grid.cell_of({39.0, -98.0}, 5);
  cells[0].center = grid.center_of(cells[0].cell);
  cells[0].underserved = 1200;
  return DemandProfile(std::move(cells), std::move(counties));
}

TEST(GeoJson, MatchesWriterReference) {
  const DemandProfile small =
      SyntheticGenerator({.seed = 7, .scale = 0.002}).generate_profile();
  const DemandProfile one = one_cell_profile(52'000.5);
  // A non-finite income writes null on both paths.
  const DemandProfile one_inf =
      one_cell_profile(std::numeric_limits<double>::infinity());
  struct Case {
    const char* name;
    const DemandProfile* profile;
    std::uint32_t min_locations;
  };
  const Case cases[] = {
      {"national min 0", &national_profile(), 0},
      {"national min 500", &national_profile(), 500},
      {"national min 1000", &national_profile(), 1000},
      {"small min 0", &small, 0},
      {"small min 500", &small, 500},
      {"no qualifying cell", &small,
       std::numeric_limits<std::uint32_t>::max()},
      {"one cell", &one, 1000},
      {"one cell, infinite income", &one_inf, 0},
  };
  const hex::HexGrid grid;
  runtime::ThreadPool pool(4);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::ostringstream want;
    oracle::write_geojson_reference(want, *c.profile, grid, c.min_locations);
    for (runtime::Executor* executor :
         {&runtime::serial_executor(), static_cast<runtime::Executor*>(&pool)}) {
      std::ostringstream got;
      write_geojson(got, *c.profile, grid, c.min_locations, *executor);
      EXPECT_EQ(got.str(), want.str())
          << "at concurrency " << executor->concurrency();
    }
  }
  std::ostringstream none;
  write_geojson(none, small, grid, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(none.str(), "{\"type\":\"FeatureCollection\",\"features\":[]}\n");
}

TEST(GeoJson, FailedStreamThrows) {
  std::ofstream out("/nonexistent-dir-xyz/out.geojson");
  EXPECT_THROW(write_geojson(out, one_cell_profile(50'000.0), hex::HexGrid()),
               std::runtime_error);
}

}  // namespace
}  // namespace leodivide::demand

// Appended: generator scale/seed property sweeps.
namespace leodivide::demand {
namespace {

class GeneratorScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(GeneratorScaleSweep, TotalsExactAndCellsInRegion) {
  const double scale = GetParam();
  const SyntheticGenerator gen({.seed = 99, .scale = scale});
  const DemandProfile profile = gen.generate_profile();
  const auto target = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(paper::kTotalLocations) * scale));
  EXPECT_EQ(profile.total_locations(), target);
  EXPECT_GT(profile.cell_count(), 0U);
  for (const auto& cell : profile.cells()) {
    EXPECT_GE(cell.underserved, 1U);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorScaleSweep,
                         ::testing::Values(0.001, 0.005, 0.02, 0.1, 0.5));

class GeneratorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedSweep, DistributionInvariantsHoldAcrossSeeds) {
  const SyntheticGenerator gen({.seed = GetParam(), .scale = 0.05});
  const DemandProfile profile = gen.generate_profile();
  // Per-cell counts never exceed the generated-cell ceiling at this scale
  // (planting is suppressed below 2x the planted mass at 0.05 they fit).
  const auto counts = profile.counts_as_doubles();
  EXPECT_EQ(profile.total_locations(),
            static_cast<std::uint64_t>(std::llround(
                0.05 * static_cast<double>(paper::kTotalLocations))));
  // County weights are consistent.
  std::uint64_t by_county = 0;
  for (const auto& c : profile.counties().all()) {
    by_county += c.underserved_locations;
  }
  EXPECT_EQ(by_county, profile.total_locations());
  EXPECT_FALSE(counts.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace leodivide::demand
