// Unit tests for leodivide::core — the paper's analytical model. These pin
// the library's outputs to the published numbers (Table 1, F1, Table 2,
// Figures 2 and 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/capacity_model.hpp"
#include "leodivide/core/longtail.hpp"
#include "leodivide/core/oversubscription.hpp"
#include "leodivide/core/report.hpp"
#include "leodivide/core/scenario.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/calibration.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/hex/hexgrid.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/runtime/thread_pool.hpp"
#include "leodivide/serve/incremental.hpp"

namespace leodivide::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const demand::DemandProfile& national_profile() {
  static const demand::DemandProfile profile =
      demand::SyntheticGenerator(demand::GeneratorConfig{}).generate_profile();
  return profile;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A long-tail curve starts at the capped deployment, bit for bit.
void expect_first_point_is_capped(const std::vector<LongTailPoint>& curve,
                                  const SizingResult& capped) {
  ASSERT_FALSE(curve.empty());
  EXPECT_TRUE(same_bits(curve.front().satellites, capped.satellites));
  EXPECT_TRUE(
      same_bits(curve.front().binding_lat_deg, capped.binding_lat_deg));
  EXPECT_EQ(curve.front().beams_on_binding, capped.beams_on_binding);
}

// Test oracle: the long-tail sweep as an independent max-heap on satellites
// with per-cell K(phi), lazy deletion of stale entries, its own peak-cell
// fallback and a final sort on locations_unserved.
std::vector<LongTailPoint> longtail_reference(
    const demand::DemandProfile& profile, const SizingModel& model,
    double beamspread, double oversub_cap) {
  struct HeapEntry {
    double satellites;
    std::size_t cell;
    std::uint32_t beams;  // beams assumed when this entry was pushed
    bool operator<(const HeapEntry& other) const {
      return satellites < other.satellites;  // max-heap on satellites
    }
  };
  const auto& cap = model.capacity;
  const std::uint32_t cap_locs = cap.max_locations_at(oversub_cap);
  const std::size_t n = profile.cell_count();
  std::vector<double> units(n);
  for (std::size_t i = 0; i < n; ++i) {
    units[i] = coverage_units(model, profile.cells()[i].center.lat_deg);
  }
  auto sats_for = [&](std::size_t i, std::uint32_t beams) {
    return units[i] /
           cap.plan().cells_served_per_satellite(beamspread, beams);
  };
  std::vector<std::uint32_t> served(n);
  std::uint64_t unserved = 0;
  std::priority_queue<HeapEntry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = std::min(profile.cells()[i].underserved, cap_locs);
    served[i] = s;
    unserved += profile.cells()[i].underserved - s;
    const std::uint32_t beams = cap.beams_needed(s, oversub_cap);
    if (beams >= 2) heap.push({sats_for(i, beams), i, beams});
  }
  std::vector<LongTailPoint> curve;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const std::uint32_t beams = cap.beams_needed(served[top.cell], oversub_cap);
    if (beams != top.beams || beams < 2) continue;
    LongTailPoint point;
    point.locations_unserved = unserved;
    point.satellites = top.satellites;
    point.beams_on_binding = beams;
    point.binding_lat_deg = profile.cells()[top.cell].center.lat_deg;
    // leolint:allow(float-eq): dedup of exactly-assigned curve points
    if (curve.empty() || point.satellites != curve.back().satellites) {
      curve.push_back(point);
    }
    const std::uint32_t target =
        location_floor(static_cast<double>(beams - 1) *
                       cap.beam_capacity_gbps() * oversub_cap /
                       demand::location_demand_gbps());
    unserved += served[top.cell] - target;
    served[top.cell] = target;
    if (beams - 1 >= 2) {
      heap.push({sats_for(top.cell, beams - 1), top.cell, beams - 1});
    }
  }
  if (curve.empty()) {
    const std::size_t peak = profile.peak_cell().index;
    LongTailPoint point;
    point.locations_unserved = unserved;
    point.beams_on_binding = 1;
    point.binding_lat_deg = profile.cells()[peak].center.lat_deg;
    point.satellites = sats_for(peak, 1);
    curve.push_back(point);
  }
  std::sort(curve.begin(), curve.end(),
            [](const LongTailPoint& a, const LongTailPoint& b) {
              return a.locations_unserved < b.locations_unserved;
            });
  return curve;
}

// --------------------------------------------------------- capacity model ----

TEST(CapacityModel, Table1Numbers) {
  const SatelliteCapacityModel model;
  EXPECT_NEAR(model.cell_capacity_gbps(), 17.325, 1e-9);
  EXPECT_NEAR(model.beam_capacity_gbps(), 4.33125, 1e-9);
  EXPECT_NEAR(model.cell_demand_gbps(5998), 599.8, 1e-9);
  EXPECT_NEAR(model.required_oversubscription(5998), 34.62, 0.01);
  EXPECT_EQ(model.max_locations_at(20.0), 3465U);
  EXPECT_EQ(model.max_locations_at(35.0), 6063U);
}

TEST(CapacityModel, Table1SummaryAgainstNationalProfile) {
  const SatelliteCapacityModel model;
  const Table1Summary t = model.table1(national_profile());
  EXPECT_NEAR(t.ut_downlink_mhz, 3850.0, 1e-9);
  EXPECT_NEAR(t.total_mhz, 8850.0, 1e-9);
  EXPECT_EQ(t.ut_beams, 24U);
  EXPECT_EQ(t.total_beams, 28U);
  EXPECT_NEAR(t.spectral_efficiency, 4.5, 1e-12);
  EXPECT_EQ(t.peak_cell_users, 5998U);
  EXPECT_NEAR(t.peak_cell_demand_gbps, 599.8, 1e-9);
  EXPECT_NEAR(t.max_oversubscription, 35.0, 0.5);  // paper rounds ~35:1
}

TEST(CapacityModel, BeamsNeededLadder) {
  const SatelliteCapacityModel model;
  // At 20:1 a beam carries 866 locations.
  EXPECT_EQ(model.beams_needed(0, 20.0), 0U);
  EXPECT_EQ(model.beams_needed(1, 20.0), 1U);
  EXPECT_EQ(model.beams_needed(866, 20.0), 1U);
  EXPECT_EQ(model.beams_needed(867, 20.0), 2U);
  EXPECT_EQ(model.beams_needed(1733, 20.0), 3U);
  EXPECT_EQ(model.beams_needed(2599, 20.0), 4U);
  EXPECT_EQ(model.beams_needed(3465, 20.0), 4U);
  // Above the cap the beam count saturates at 4 (capacity binds instead).
  EXPECT_EQ(model.beams_needed(5998, 20.0), 4U);
}

TEST(CapacityModel, RejectsBadOversub) {
  const SatelliteCapacityModel model;
  EXPECT_THROW((void)model.max_locations_at(0.0), std::invalid_argument);
  EXPECT_THROW((void)model.beams_needed(10, -1.0), std::invalid_argument);
}

TEST(CapacityModel, RejectsNonFiniteAndSaturatesHugeOversub) {
  const SatelliteCapacityModel model;
  for (const double bad : {kNaN, kInf, -kInf}) {
    EXPECT_THROW((void)model.max_locations_at(bad), std::invalid_argument);
    EXPECT_THROW((void)model.beams_needed(10, bad), std::invalid_argument);
    EXPECT_THROW((void)max_locations_spread(model, bad, 20.0),
                 std::invalid_argument);
    EXPECT_THROW((void)max_locations_spread(model, 10.0, bad),
                 std::invalid_argument);
    EXPECT_THROW((void)model.plan().cells_served_per_satellite(bad, 1),
                 std::invalid_argument);
  }
  // 1e12:1 is finite, but its location limit overflows uint32: it
  // saturates, which is exact because cell counts are uint32.
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(model.max_locations_at(1e12), kMax);
  EXPECT_EQ(max_locations_spread(model, 1.0, 1e12), kMax);
  EXPECT_EQ(model.beams_needed(kMax, 1e12), 1U);
}

TEST(CapacityModel, RequiredOversubscriptionIsLinear) {
  const SatelliteCapacityModel model;
  EXPECT_NEAR(model.required_oversubscription(3465), 20.0, 0.01);
  EXPECT_NEAR(model.required_oversubscription(1733) * 2.0,
              model.required_oversubscription(3466), 0.01);
}

// -------------------------------------------------------- oversubscription ----

TEST(Oversubscription, F1NumbersReproduce) {
  const OversubscriptionReport r =
      analyze_oversubscription(national_profile(), SatelliteCapacityModel());
  EXPECT_EQ(r.max_locations_at_cap, 3465U);
  EXPECT_EQ(r.cells_above_cap, 5U);
  EXPECT_EQ(r.locations_above_cap, 22428U);
  EXPECT_EQ(r.locations_unservable_at_cap, 5103U);
  EXPECT_NEAR(r.servable_fraction_at_cap, 0.9989, 0.0001);
  EXPECT_NEAR(r.peak_oversubscription, 34.62, 0.01);
}

TEST(Oversubscription, LooserCapServesEveryone) {
  const OversubscriptionReport r = analyze_oversubscription(
      national_profile(), SatelliteCapacityModel(), 35.0);
  EXPECT_EQ(r.locations_unservable_at_cap, 0U);
  EXPECT_DOUBLE_EQ(r.servable_fraction_at_cap, 1.0);
}

TEST(Oversubscription, EmptyProfileIsFullyServable) {
  demand::CountyTable counties;
  counties.add({"90001", {}, 1.0, 0});
  const demand::DemandProfile empty({}, std::move(counties));
  const OversubscriptionReport r =
      analyze_oversubscription(empty, SatelliteCapacityModel());
  EXPECT_DOUBLE_EQ(r.servable_fraction_at_cap, 1.0);
}

// --------------------------------------------------------------- beamspread ----

TEST(Beamspread, SpreadCapacityAndLimits) {
  const SatelliteCapacityModel model;
  EXPECT_NEAR(spread_cell_capacity_gbps(model, 1.0), 17.325, 1e-9);
  EXPECT_NEAR(spread_cell_capacity_gbps(model, 5.0), 3.465, 1e-9);
  EXPECT_EQ(max_locations_spread(model, 1.0, 20.0), 3465U);
  EXPECT_EQ(max_locations_spread(model, 5.0, 20.0), 693U);
}

// ----------------------------------------------------------- served fraction ----

TEST(ServedFraction, Fig2CornersMatchPaperColorbar) {
  const SatelliteCapacityModel model;
  // Bottom-left of Fig 2 (beamspread 14, oversub 5) ~ 0.36; top-right
  // (beamspread 2, oversub 30) ~ 0.99+.
  const double lo = served_cell_fraction(national_profile(), model, 14.0, 5.0);
  const double hi = served_cell_fraction(national_profile(), model, 2.0, 30.0);
  EXPECT_NEAR(lo, 0.36, 0.02);
  EXPECT_GE(hi, 0.99);
}

TEST(ServedFraction, MonotoneInBothAxes) {
  const SatelliteCapacityModel model;
  const auto& p = national_profile();
  EXPECT_LE(served_cell_fraction(p, model, 10.0, 10.0),
            served_cell_fraction(p, model, 5.0, 10.0));
  EXPECT_LE(served_cell_fraction(p, model, 10.0, 10.0),
            served_cell_fraction(p, model, 10.0, 20.0));
}

TEST(ServedFraction, LocationFractionAtUnitSpread) {
  // At beamspread 1 and the 20:1 cap, 99.89% of locations are servable —
  // but served_location_fraction counts whole cells, so cells above the cap
  // contribute nothing: 1 - 22428/4.67M = 0.9952.
  const SatelliteCapacityModel model;
  const double f =
      served_location_fraction(national_profile(), model, 1.0, 20.0);
  EXPECT_NEAR(f, 1.0 - 22428.0 / 4672500.0, 1e-6);
}

TEST(ServedFraction, GridShapeMatchesAxes) {
  const SatelliteCapacityModel model;
  const auto grid = served_fraction_grid(national_profile(), model,
                                         {2.0, 8.0, 14.0}, {5.0, 20.0});
  ASSERT_EQ(grid.size(), 3U);
  ASSERT_EQ(grid[0].size(), 2U);
  // Fractions are fractions.
  for (const auto& row : grid) {
    for (double v : row) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// ------------------------------------------------------------------- sizing ----

TEST(Sizing, CoverageUnitsMatchReverseEngineeredK) {
  // K at the calibrated binding latitudes must reproduce the paper's
  // Table 2 constants (that is how the latitudes were derived).
  const SizingModel model;
  const double lat_full = demand::paper::binding_latitude_for_k(
      demand::paper::kKFullService, model.cell_area_km2);
  EXPECT_NEAR(coverage_units(model, lat_full), demand::paper::kKFullService,
              1.0);
}

TEST(Sizing, SatellitesFromKMatchesPaperFormula) {
  const SizingModel model;
  // N = K / (1 + 20 s) for b = 4.
  EXPECT_NEAR(satellites_from_k(model, 1665076.0, 1.0, 4), 79289.3, 1.0);
  EXPECT_NEAR(satellites_from_k(model, 1665076.0, 5.0, 4), 16486.0, 1.0);
  EXPECT_NEAR(satellites_from_k(model, 1691819.0, 15.0, 4), 5620.7, 1.0);
}

TEST(Sizing, Table2FullServiceWithinHalfPercent) {
  const SizingModel model;
  const struct { double s; double paper; } rows[] = {
      {1, 79287}, {2, 40611}, {5, 16486}, {10, 8284}, {15, 5532}};
  for (const auto& row : rows) {
    const SizingResult r = size_full_service(national_profile(), model, row.s);
    EXPECT_NEAR(r.satellites, row.paper, row.paper * 0.005)
        << "beamspread " << row.s;
    EXPECT_EQ(r.beams_on_binding, 4U);
  }
}

TEST(Sizing, Table2CappedWithinHalfPercent) {
  const SizingModel model;
  const struct { double s; double paper; } rows[] = {
      {1, 80567}, {2, 41261}, {5, 16750}, {10, 8417}, {15, 5621}};
  for (const auto& row : rows) {
    const SizingResult r =
        size_with_cap(national_profile(), model, row.s, 20.0);
    EXPECT_NEAR(r.satellites, row.paper, row.paper * 0.005)
        << "beamspread " << row.s;
    EXPECT_EQ(r.beams_on_binding, 4U);
  }
}

TEST(Sizing, CappedScenarioNeedsMoreSatellitesThanFullService) {
  // The paper's counterintuitive Table-2 property: the 20:1 cap binds at a
  // cell slightly further from the inclination latitude, so it needs MORE
  // satellites than full service at every beamspread.
  const SizingModel model;
  for (double s : {1.0, 2.0, 5.0, 10.0, 15.0}) {
    EXPECT_GT(size_with_cap(national_profile(), model, s, 20.0).satellites,
              size_full_service(national_profile(), model, s).satellites);
  }
}

TEST(Sizing, FullServiceBindingIsThePeakCell) {
  const SizingModel model;
  const SizingResult r = size_full_service(national_profile(), model, 1.0);
  EXPECT_EQ(national_profile().cells()[r.binding_cell_index].underserved,
            5998U);
  EXPECT_NEAR(r.binding_lat_deg, 37.0, 0.5);
}

TEST(Sizing, CappedBindingIsTheSouthernmostFourBeamCell) {
  const SizingModel model;
  const SizingResult r = size_with_cap(national_profile(), model, 1.0, 20.0);
  EXPECT_NEAR(r.binding_lat_deg, 36.4, 0.5);
  // The binding cell is one of the five planted peaks (truncated to 3465).
  EXPECT_GT(national_profile().cells()[r.binding_cell_index].underserved,
            3465U);
}

TEST(Sizing, MoreBeamspreadAlwaysShrinksConstellation) {
  const SizingModel model;
  double prev = 1e18;
  for (double s : {1.0, 2.0, 5.0, 10.0, 15.0}) {
    const double n = size_full_service(national_profile(), model, s).satellites;
    EXPECT_LT(n, prev);
    prev = n;
  }
}

TEST(Sizing, RejectsEmptyProfileAndBadK) {
  demand::CountyTable counties;
  counties.add({"90001", {}, 1.0, 0});
  const demand::DemandProfile empty({}, std::move(counties));
  const SizingModel model;
  EXPECT_THROW((void)size_full_service(empty, model, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)size_with_cap(empty, model, 1.0, 20.0),
               std::invalid_argument);
  EXPECT_THROW((void)satellites_from_k(model, 0.0, 1.0, 4),
               std::invalid_argument);
}

// A zone table must index every cell: a short one would be read past its
// end, so it is rejected.
TEST(Sizing, RejectsZoneTableOfAnotherSize) {
  const demand::DemandProfile& profile = national_profile();
  const std::optional<CellCapacity> zone =
      cell_capacity(SizingModel{}, 10.0, 20.0);
  const std::vector<std::uint32_t> short_table(profile.cell_count() - 1, 0);
  const CapacityZones mismatched{{&zone, 1}, short_table};
  EXPECT_THROW(
      (void)size_with_cap(profile, mismatched, runtime::serial_executor()),
      std::invalid_argument);
  const std::vector<std::uint32_t> full_table(profile.cell_count(), 0);
  const CapacityZones matched{{&zone, 1}, full_table};
  EXPECT_EQ(size_with_cap(profile, matched, runtime::serial_executor()),
            size_with_cap(profile, SizingModel{}, 10.0, 20.0));
}

TEST(Sizing, HostileParametersThrowInsteadOfReturningWrongNumbers) {
  const demand::DemandProfile& profile = national_profile();
  const SizingModel model;
  for (const double bad : {kNaN, kInf, -kInf}) {
    EXPECT_THROW((void)size_with_cap(profile, model, 10.0, bad),
                 std::invalid_argument);
    EXPECT_THROW((void)size_with_cap(profile, model, bad, 20.0),
                 std::invalid_argument);
    EXPECT_THROW((void)size_full_service(profile, model, bad),
                 std::invalid_argument);
    EXPECT_THROW((void)served_cell_fraction(profile, model.capacity, 10.0, bad),
                 std::invalid_argument);
    EXPECT_THROW((void)served_cell_fraction(profile, model.capacity, bad, 20.0),
                 std::invalid_argument);
    EXPECT_THROW((void)longtail_curve(profile, model, 10.0, bad),
                 std::invalid_argument);
  }
  // At 1e12:1 no cell needs a second beam: the peak cell binds on one, and
  // every cell is served.
  const SizingResult r = size_with_cap(profile, model, 10.0, 1e12);
  EXPECT_EQ(r.beams_on_binding, 1U);
  EXPECT_EQ(r.binding_cell_index, profile.peak_cell().index);
  EXPECT_EQ(served_cell_fraction(profile, model.capacity, 10.0, 1e12), 1.0);
}

// ----------------------------------------------------------------- longtail ----

TEST(LongTail, ResidueMatchesF1) {
  const SizingModel model;
  const auto curve = longtail_curve(national_profile(), model, 10.0, 20.0);
  ASSERT_GE(curve.size(), 2U);
  // The first point's unserved count is the 20:1 unservable residue (5103).
  EXPECT_EQ(curve.front().locations_unserved, 5103U);
}

TEST(LongTail, FirstPointMatchesTable2) {
  const SizingModel model;
  for (double s : {1.0, 5.0, 10.0}) {
    const auto curve = longtail_curve(national_profile(), model, s, 20.0);
    expect_first_point_is_capped(
        curve, size_with_cap(national_profile(), model, s, 20.0));
  }
}

TEST(LongTail, CurveIsMonotone) {
  const SizingModel model;
  const auto curve = longtail_curve(national_profile(), model, 10.0, 20.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].locations_unserved, curve[i - 1].locations_unserved);
    EXPECT_LE(curve[i].satellites, curve[i - 1].satellites);
  }
}

TEST(LongTail, DiminishingReturnsAreSignificant) {
  // F3: connecting the final few thousand locations costs hundreds to
  // thousands of satellites. Compare the constellation at the residue vs
  // 50k unserved.
  const SizingModel model;
  const auto curve = longtail_curve(national_profile(), model, 10.0, 20.0);
  const double full = satellites_for_unserved_budget(curve, 5103);
  const double relaxed = satellites_for_unserved_budget(curve, 50000);
  EXPECT_GT(full - relaxed, 200.0);
}

TEST(LongTail, BudgetLookupSemantics) {
  const SizingModel model;
  const auto curve = longtail_curve(national_profile(), model, 5.0, 20.0);
  // Exactly at the residue: the full capped deployment.
  EXPECT_NEAR(satellites_for_unserved_budget(curve, 5103),
              curve.front().satellites, 1e-9);
  // Below the residue: impossible.
  EXPECT_THROW((void)satellites_for_unserved_budget(curve, 0),
               std::invalid_argument);
  // A huge budget reaches the one-beam floor.
  EXPECT_NEAR(satellites_for_unserved_budget(curve, 100000000ULL),
              curve.back().satellites, 1e-9);
}

TEST(LongTail, StricterOversubIncreasesResidue) {
  const SizingModel model;
  const auto at20 = longtail_curve(national_profile(), model, 5.0, 20.0);
  const auto at15 = longtail_curve(national_profile(), model, 5.0, 15.0);
  EXPECT_GT(at15.front().locations_unserved, at20.front().locations_unserved);
}

// ----------------------------------------------------------------- scenario ----

TEST(Scenario, FullAnalysisIsConsistent) {
  const AnalysisResults r = run_full_analysis(national_profile());
  EXPECT_EQ(r.table2.size(), 5U);
  EXPECT_EQ(r.fig2_grid.size(), r.fig2_beamspreads.size());
  EXPECT_EQ(r.fig3.size(), 6U);
  EXPECT_EQ(r.fig4.size(), 4U);
  EXPECT_NEAR(r.fig4_starlink_threshold_income, 72000.0, 1e-6);
  EXPECT_NEAR(r.fig4_lifeline_threshold_income, 66450.0, 1e-6);
}

TEST(Scenario, ReportRendersEverySection) {
  const AnalysisResults r = run_full_analysis(national_profile());
  const std::string report = render_report(r);
  for (const char* needle :
       {"Table 1", "F1", "Table 2", "Figure 2", "Figure 3", "Figure 4",
        "3850", "5,998", "22,428", "74.5%"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

// ----------------------------------------- parameterized: sizing invariants ----

class SizingInvariants : public ::testing::TestWithParam<double> {};

TEST_P(SizingInvariants, KIdentityHoldsAcrossBeamspreads) {
  // N(s) * (1 + 20 s) is constant per scenario — the identity that let us
  // reverse-engineer the paper's Table 2.
  const double s = GetParam();
  const SizingModel model;
  const double n_full =
      size_full_service(national_profile(), model, s).satellites;
  const double n1 =
      size_full_service(national_profile(), model, 1.0).satellites;
  EXPECT_NEAR(n_full * (1.0 + 20.0 * s), n1 * 21.0, n1 * 21.0 * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Beamspreads, SizingInvariants,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0, 7.5, 10.0,
                                           12.0, 15.0));

}  // namespace
}  // namespace leodivide::core

// Appended: extension modules (core/uplink.hpp, core/backhaul.hpp).
#include "leodivide/core/backhaul.hpp"
#include "leodivide/core/uplink.hpp"

namespace leodivide::core {
namespace {

TEST(Uplink, FederalUplinkDemandIs20Mbps) {
  EXPECT_DOUBLE_EQ(location_uplink_demand_gbps(), 0.02);
}

TEST(Uplink, DefaultModelCapacity) {
  const UplinkModel up;
  EXPECT_NEAR(up.cell_capacity_gbps(), 1.25, 1e-9);  // 500 MHz x 2.5 bps/Hz
}

TEST(Uplink, PeakCellUplinkBindsHarderThanDownlink) {
  const SatelliteCapacityModel down;
  const UplinkModel up;
  const auto r = analyze_uplink(down, up, 5998);
  EXPECT_NEAR(r.downlink_oversubscription, 34.62, 0.01);
  EXPECT_NEAR(r.uplink_oversubscription, 95.97, 0.05);
  EXPECT_GT(r.uplink_to_downlink_ratio, 2.5);
  // At a 20:1 uplink rule the cell serves far fewer locations than the
  // downlink's 3465.
  EXPECT_EQ(r.max_locations_at_20to1_uplink, 1250U);
  EXPECT_LT(r.max_locations_at_20to1_uplink, down.max_locations_at(20.0));
}

TEST(Uplink, RatioIsLocationIndependent) {
  const SatelliteCapacityModel down;
  const UplinkModel up;
  const double r1 = analyze_uplink(down, up, 100).uplink_to_downlink_ratio;
  const double r2 = analyze_uplink(down, up, 5998).uplink_to_downlink_ratio;
  EXPECT_NEAR(r1, r2, 1e-9);
}

TEST(Uplink, RejectsBadModel) {
  const SatelliteCapacityModel down;
  UplinkModel bad;
  bad.ut_uplink_mhz = 0.0;
  EXPECT_THROW((void)analyze_uplink(down, bad, 10), std::invalid_argument);
}

TEST(Backhaul, DefaultModelRoughlySustainsUserBeams) {
  const SatelliteCapacityModel model;
  const BackhaulModel bh;
  const auto r = analyze_backhaul(model, bh);
  // 24 beams x 4.33125 = 103.95 Gbps of user capacity.
  EXPECT_NEAR(r.user_capacity_gbps, 103.95, 0.01);
  // 2 links x 7100 MHz x 4.5 = 63.9 Gbps feeder.
  EXPECT_NEAR(r.feeder_capacity_gbps, 63.9, 0.01);
  EXPECT_NEAR(r.adequacy_ratio, 0.615, 0.005);
  EXPECT_NEAR(r.bent_pipe_fraction, 0.615, 0.005);
}

TEST(Backhaul, MoreFeederLinksImproveAdequacy) {
  const SatelliteCapacityModel model;
  BackhaulModel bh;
  bh.feeder_links = 4;
  const auto r = analyze_backhaul(model, bh);
  EXPECT_GT(r.adequacy_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.bent_pipe_fraction, 1.0);
}

TEST(Backhaul, GatewaySitesScaleWithFleet) {
  const BackhaulModel bh;
  const double small = gateway_sites_needed(bh, 8000.0, 53.0, 39.5, 8.1e6);
  const double large = gateway_sites_needed(bh, 40000.0, 53.0, 39.5, 8.1e6);
  EXPECT_GT(small, 10.0);
  EXPECT_NEAR(large / small, 5.0, 0.1);  // ceil() wiggle
}

TEST(Backhaul, RejectsBadInputs) {
  const SatelliteCapacityModel model;
  BackhaulModel bad;
  bad.feeder_links = 0;
  EXPECT_THROW((void)analyze_backhaul(model, bad), std::invalid_argument);
  const BackhaulModel bh;
  EXPECT_THROW((void)gateway_sites_needed(bh, 0.0, 53.0, 39.5, 8.1e6),
               std::invalid_argument);
  EXPECT_THROW((void)gateway_sites_needed(bh, 1000.0, 53.0, 39.5, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace leodivide::core

// Appended: serving economics (core/economics.hpp).
#include "leodivide/core/economics.hpp"
#include "leodivide/stats/rng.hpp"

namespace leodivide::core {
namespace {

TEST(Economics, AmortisedFleetCost) {
  const CostModel cost;
  EXPECT_DOUBLE_EQ(cost.annual_cost_usd(5.0), 1'000'000.0);
  EXPECT_DOUBLE_EQ(cost.annual_cost_usd(0.0), 0.0);
  EXPECT_THROW((void)cost.annual_cost_usd(-1.0), std::invalid_argument);
  CostModel bad;
  bad.satellite_lifetime_years = 0.0;
  EXPECT_THROW((void)bad.annual_cost_usd(1.0), std::invalid_argument);
}

TEST(Economics, DefaultCostModelIsFlatAmortisationBitForBit) {
  // The defaults add +0.0 launch and ground capex and 0.0 x capex of opex,
  // none of which moves a non-negative value: every fleet costs exactly
  // s * $1M / 5 years, the formula the extension's numbers were made with.
  const CostModel cost;
  stats::Pcg32 rng(20251020, /*stream=*/3);
  std::vector<double> fleets{0.0, 1.0, 5.0, 4408.0, 16778.0, 0x1p-1074,
                             1e300};
  for (int i = 0; i < 10000; ++i) {
    fleets.push_back(rng.next_double() * 1e5);
    fleets.push_back(std::ldexp(
        rng.next_double(), static_cast<int>(rng.next_below(200)) - 100));
  }
  for (const double s : fleets) {
    const double flat = s * 1'000'000.0 / 5.0;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cost.annual_cost_usd(s)),
              std::bit_cast<std::uint64_t>(flat))
        << "fleet " << s;
  }
}

TEST(Economics, CostModelAnnualCostDecomposition) {
  const CostModel cost{.satellite_capex_usd = 1000.0,
                       .launch_capex_usd = 500.0,
                       .ground_capex_usd = 10000.0,
                       .satellite_lifetime_years = 5.0,
                       .annual_opex_fraction = 0.1};
  // 10 satellites: capex = 10*1500 + 10000 = 25000;
  // annual = 25000/5 + 0.1*25000 = 5000 + 2500.
  EXPECT_DOUBLE_EQ(cost.annual_cost_usd(10.0), 7500.0);
  EXPECT_THROW((void)cost.annual_cost_usd(-1.0), std::invalid_argument);
}

TEST(Economics, CostModelRejectsBadParameters) {
  CostModel cost;
  cost.satellite_lifetime_years = 0.0;
  EXPECT_THROW((void)cost.annual_cost_usd(10.0), std::invalid_argument);
  CostModel negative_launch;
  negative_launch.launch_capex_usd = -1.0;
  EXPECT_THROW((void)negative_launch.annual_cost_usd(10.0),
               std::invalid_argument);
  CostModel nan_opex;
  nan_opex.annual_opex_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)nan_opex.annual_cost_usd(10.0), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)CostModel{}.annual_cost_usd(inf), std::invalid_argument);
}

TEST(Economics, CostPerLocationYearIsAnnualCostPerServedLocation) {
  const CostModel cost;
  // 3000 satellites cost $600M/yr; 80k of 100k locations served.
  const LongTailPoint point{20000, 3000.0, 2, 37.0};
  EXPECT_DOUBLE_EQ(cost_per_location_year_usd(cost, point, 100000), 7500.0);
  // A point that serves no one costs nothing per location, even with a
  // cost model that could not price it.
  CostModel bad;
  bad.satellite_lifetime_years = 0.0;
  EXPECT_EQ(cost_per_location_year_usd(bad, point, 20000), 0.0);
  EXPECT_EQ(cost_per_location_year_usd(bad, point, 100), 0.0);
}

TEST(Economics, LongtailEconomicsOrderingAndMarginals) {
  std::vector<LongTailPoint> curve{
      {1000, 5000.0, 4, 37.0},   // serve all but 1000 with 5000 sats
      {5000, 4000.0, 3, 37.0},   // cheaper: 4000 sats, 5000 unserved
      {20000, 3000.0, 2, 37.0},  // cheapest
  };
  const CostModel cost;
  const auto econ = longtail_economics(curve, 100000, cost);
  ASSERT_EQ(econ.size(), 3U);
  // Ordered cheapest (most unserved) first.
  EXPECT_EQ(econ.front().locations_unserved, 20000U);
  EXPECT_EQ(econ.back().locations_unserved, 1000U);
  EXPECT_EQ(econ.front().locations_served, 80000U);
  // Average cost: 3000 sats * $1M / 5yr / 80k locations = $7,500.
  EXPECT_NEAR(econ.front().cost_per_location_year_usd, 7500.0, 1e-9);
  // Marginal from 80k to 95k served: (4000-3000) sats * $0.2M/yr each over
  // 15,000 extra locations = $13,333.33.
  EXPECT_NEAR(econ[1].marginal_cost_per_location_year_usd, 13333.33, 0.01);
  // Marginals grow toward the tail (diminishing returns).
  EXPECT_GT(econ[2].marginal_cost_per_location_year_usd,
            econ[1].marginal_cost_per_location_year_usd);
}

TEST(Economics, RejectsDegenerateInputs) {
  const CostModel cost;
  EXPECT_THROW((void)longtail_economics({}, 100, cost),
               std::invalid_argument);
  std::vector<LongTailPoint> curve{{10, 100.0, 1, 37.0}};
  EXPECT_THROW((void)longtail_economics(curve, 0, cost),
               std::invalid_argument);
}

TEST(Economics, RevenueCeilingMatchesAffordability) {
  const afford::AffordabilityAnalyzer analyzer(national_profile());
  const double rev = annual_revenue_ceiling_usd(
      analyzer, afford::starlink_residential());
  const auto r = analyzer.evaluate(afford::starlink_residential());
  const double affordable =
      analyzer.income().total_locations() - r.locations_unable;
  EXPECT_NEAR(rev, affordable * 120.0 * 12.0, 1.0);
  // ~25.5% of 4.67M at $1440/yr: about $1.7B.
  EXPECT_NEAR(rev, 1.72e9, 0.05e9);
}

TEST(Economics, NationalMarginalCostsExplodeInTheTail) {
  const SizingModel model;
  const auto curve = longtail_curve(national_profile(), model, 10.0, 20.0);
  const auto econ = longtail_economics(
      curve, national_profile().total_locations(), CostModel{});
  // The very last step (serving down to the residue) costs far more per
  // location-year than the deployment's average cost per location-year.
  ASSERT_GE(econ.size(), 3U);
  EXPECT_GT(econ.back().marginal_cost_per_location_year_usd,
            20.0 * econ.back().cost_per_location_year_usd);
}

}  // namespace
}  // namespace leodivide::core

// Appended: broader parameterized property suites.
namespace leodivide::core {
namespace {

class LongtailConsistency
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LongtailConsistency, FirstPointMatchesDirectSizing) {
  const auto [s, oversub] = GetParam();
  const SizingModel model;
  const auto curve = longtail_curve(national_profile(), model, s, oversub);
  SCOPED_TRACE("s=" + std::to_string(s) +
               " oversub=" + std::to_string(oversub));
  expect_first_point_is_capped(
      curve, size_with_cap(national_profile(), model, s, oversub));
  // Monotone non-increasing satellites along ascending unserved.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].satellites, curve[i - 1].satellites + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LongtailConsistency,
    ::testing::Combine(::testing::Values(1.0, 2.0, 5.0, 10.0, 15.0),
                       ::testing::Values(15.0, 20.0, 25.0)));

class ServedFractionMonotone
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ServedFractionMonotone, TighterParametersServeNoMore) {
  const auto [s, oversub] = GetParam();
  const SatelliteCapacityModel model;
  const double base =
      served_cell_fraction(national_profile(), model, s, oversub);
  EXPECT_LE(served_cell_fraction(national_profile(), model, s * 1.5, oversub),
            base + 1e-12);
  EXPECT_LE(served_cell_fraction(national_profile(), model, s, oversub * 0.5),
            base + 1e-12);
  EXPECT_GE(base, 0.0);
  EXPECT_LE(base, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ServedFractionMonotone,
    ::testing::Combine(::testing::Values(1.0, 4.0, 8.0, 14.0),
                       ::testing::Values(5.0, 15.0, 30.0)));

// ------------------------------------------------ binding-cell equivalence ----
//
// core::size_with_cap, the serve engine's per-region partials and the
// market all fold cells through the same candidates, so they must agree on
// the binding and peak cell even when many cells tie bit-exactly. These
// profiles plant runs of cells that share one latitude and one count: the
// runs' satellite requirements tie exactly, they cross the 1024-cell
// map_reduce grain and many serve regions, and the peak count ties so that
// only the cell id decides.

struct TieHeavy {
  demand::DemandProfile profile;
  std::vector<geo::GeoPoint> positions;  ///< a point inside each cell
};

TieHeavy tie_heavy_profile(std::uint64_t seed) {
  const demand::DemandProfile base =
      demand::SyntheticGenerator({.seed = seed, .scale = 0.5})
          .generate_profile();
  std::vector<demand::CellDemand> cells = base.cells();
  std::vector<geo::GeoPoint> positions;
  double south = 90.0;
  for (const demand::CellDemand& c : cells) {
    positions.push_back(c.center);
    south = std::min(south, c.center.lat_deg);
  }
  struct Run {
    double lat;
    std::uint32_t count;
  };
  // 6000 and 2600 both need all 4 beams, so the first three runs tie on
  // the largest requirement; the 6000s tie on the peak count.
  const Run runs[] = {{south - 0.5, 6000},
                      {south - 0.5, 6000},
                      {south - 0.5, 2600},
                      {south + 0.5, 6000}};
  constexpr std::size_t kRunLength = 1500;
  std::mt19937_64 rng(seed);
  for (const Run& run : runs) {
    const std::size_t start = rng() % (cells.size() - kRunLength);
    for (std::size_t i = start; i < start + kRunLength; ++i) {
      cells[i].center.lat_deg = run.lat;
      cells[i].underserved = run.count;
    }
  }
  demand::CountyTable counties = base.counties();
  for (std::uint32_t c = 0; c < counties.size(); ++c) {
    counties.at(c).underserved_locations = 0;
  }
  for (const demand::CellDemand& c : cells) {
    counties.at(c.county_index).underserved_locations += c.underserved;
  }
  return {demand::DemandProfile(std::move(cells), std::move(counties)),
          std::move(positions)};
}

// The peak is the smallest cell id among the cells with the peak count.
void expect_peak_tie_broken_by_id(const demand::DemandProfile& profile) {
  const demand::PeakCandidate peak = profile.peak_cell();
  std::size_t tied = 0;
  for (const demand::CellDemand& c : profile.cells()) {
    if (c.underserved != peak.count) continue;
    ++tied;
    EXPECT_GE(c.cell.bits(), peak.cell_bits);
  }
  EXPECT_GT(tied, 1U);
}

// The binding cell is the earliest of several bit-exact ties that span
// more than one map_reduce grain.
void expect_binding_tie_broken_by_index(const demand::DemandProfile& profile,
                                        const CellCapacity& capacity,
                                        const SizingResult& binding) {
  std::vector<std::size_t> tied;
  for (std::size_t i = 0; i < profile.cell_count(); ++i) {
    BindingCandidate one;
    one.consider(i, profile.cells()[i], capacity);
    if (one.found && same_bits(one.best.satellites, binding.satellites)) {
      tied.push_back(i);
    }
  }
  ASSERT_GT(tied.size(), 1U);
  EXPECT_EQ(binding.binding_cell_index, tied.front());
  EXPECT_GT(tied.back() - tied.front(), 1024U);
}

// (beamspread, oversub) points for the tie-heavy profiles. The last needs
// no second beam anywhere: the peak-cell fallback.
constexpr double kTiePoints[][2] = {
    {10.0, 20.0}, {4.0, 20.0}, {10.0, 5.0}, {10.0, 1e4}};

TEST(BindingEquivalence, TieHeavyProfilesAgreeAcrossEveryConsumer) {
  runtime::ThreadPool pool2(2), pool4(4), pool7(7);
  runtime::Executor* executors[] = {&runtime::serial_executor(), &pool2,
                                    &pool4, &pool7};
  const SizingModel model;
  const hex::HexGrid grid;

  for (const std::uint64_t seed : {42U, 7U, 2024U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TieHeavy tie = tie_heavy_profile(seed);
    ASSERT_GT(tie.profile.cell_count(), 7U * 1024U);
    expect_peak_tie_broken_by_id(tie.profile);
    // The tied runs span many serve regions.
    std::set<std::uint64_t> regions;
    for (const demand::CellDemand& c : tie.profile.cells()) {
      if (c.underserved == 6000) {
        regions.insert(grid.parent_of(c.cell, 2).bits());
      }
    }
    EXPECT_GT(regions.size(), 10U);

    serve::EngineConfig config;
    config.paranoid = true;
    serve::IncrementalEngine engine(tie.profile, config);
    demand::DemandProfile reference = tie.profile;
    demand::DeltaApplier applier(reference, grid, hex::kServiceCellResolution);

    const auto check_all = [&](bool check_ties) {
      const std::size_t peak = reference.peak_cell().index;
      for (const auto& p : kTiePoints) {
        const SizingResult serial =
            size_with_cap(reference, model, p[0], p[1], *executors[0]);
        expect_first_point_is_capped(
            longtail_curve(reference, model, p[0], p[1]), serial);
        for (runtime::Executor* ex : executors) {
          EXPECT_EQ(size_with_cap(reference, model, p[0], p[1], *ex), serial)
              << "threads=" << ex->concurrency();
        }
        const serve::ResizeAnswer answer = engine.query_resize(p[0], p[1]);
        EXPECT_EQ(answer.capped, serial);
        EXPECT_EQ(answer.full.binding_cell_index, peak);
        if (serial.beams_on_binding == 1) {
          EXPECT_EQ(serial.binding_cell_index, peak);
        } else if (check_ties) {
          expect_binding_tie_broken_by_index(
              reference, cell_capacity(model, p[0], p[1]), serial);
        }
      }
      for (const double oversub : {20.0, 1e4}) {
        market::MarketConfig market_config;
        market_config.operators = {market::starlink_operator()};
        market_config.oversub_cap = oversub;
        const market::MarketReport report =
            market::MarketSimulation(market_config).run(reference, pool4);
        EXPECT_EQ(report.operators[0].capped,
                  size_with_cap(reference, model, 10.0, oversub));
        EXPECT_EQ(report.operators[0].full.binding_cell_index, peak);
      }
    };
    check_all(/*check_ties=*/true);

    // A seeded delta sequence: adds and removes on random cells, which
    // make and break ties on both the peak count and the binding cell.
    std::mt19937_64 rng(seed + 1);
    for (int round = 0; round < 12; ++round) {
      const std::size_t i = rng() % tie.positions.size();
      demand::DeltaOp op;
      op.position = tie.positions[i];
      const std::uint32_t have = reference.cells()[i].underserved;
      if (have > 0 && rng() % 2 == 0) {
        op.kind = demand::DeltaKind::kRemoveLocations;
        op.count = 1 + static_cast<std::uint32_t>(rng() % have);
      } else {
        op.kind = demand::DeltaKind::kAddLocations;
        op.count = 1 + static_cast<std::uint32_t>(rng() % 3000);
      }
      (void)engine.apply(op);
      (void)applier.apply(op);
      check_all(/*check_ties=*/false);
    }
    EXPECT_GT(engine.stats().paranoid_checks, 0U);
  }
}

// longtail_curve against the heap oracle, point for point: the Figure 3
// curves at two seeds, the market's per-operator sweep models, tie-heavy
// profiles, caps so low that shed cells skip a beam or nothing binds at
// all, and degenerate profiles.
TEST(LongTail, MatchesHeapReference) {
  const SizingModel paper;
  const auto expect_same_under = [](const SizingModel& model,
                                    const demand::DemandProfile& profile,
                                    double s, double oversub) {
    EXPECT_EQ(longtail_curve(profile, model, s, oversub),
              longtail_reference(profile, model, s, oversub))
        << "s=" << s << " oversub=" << oversub
        << " inclination=" << model.inclination_deg;
  };
  const auto expect_same = [&](const demand::DemandProfile& profile, double s,
                               double oversub) {
    expect_same_under(paper, profile, s, oversub);
  };
  const AnalysisConfig config;
  const demand::DemandProfile seed7 =
      demand::SyntheticGenerator({.seed = 7}).generate_profile();
  for (const demand::DemandProfile* profile : {&national_profile(), &seed7}) {
    for (const auto& [s, oversub] : config.fig3_curves) {
      expect_same(*profile, s, oversub);
    }
  }
  for (const std::uint64_t seed : {42U, 7U, 2024U}) {
    const TieHeavy tie = tie_heavy_profile(seed);
    for (const auto& p : kTiePoints) expect_same(tie.profile, p[0], p[1]);
  }

  // The models the market feeds the sweep: each default operator at its
  // economic share (87.9 and 51.9 deg inclinations, shares below 1), whose
  // chains run several thousand entries at the market's operating point.
  const TieHeavy tie = tie_heavy_profile(42);
  const std::vector<market::OperatorConfig> operators =
      market::default_market();
  const market::MarketConfig defaults;
  for (const market::SplitPolicy policy :
       {market::SplitPolicy::kExclusive, market::SplitPolicy::kProportional}) {
    const market::SpectrumSplit split(operators, {.policy = policy});
    for (std::size_t i = 0; i < operators.size(); ++i) {
      const SizingModel model =
          operators[i].sizing_model(split.economic_share(i));
      for (const demand::DemandProfile* profile :
           {&national_profile(), &seed7, &tie.profile}) {
        expect_same_under(model, *profile, defaults.beamspread,
                          defaults.oversub_cap);
      }
    }
  }
  for (const double oversub : {0.005, 0.013, 0.02, 1e12}) {
    expect_same(national_profile(), 10.0, oversub);
  }
  std::vector<demand::CellDemand> zeros = national_profile().cells();
  for (demand::CellDemand& c : zeros) c.underserved = 0;
  const demand::DemandProfile all_zero(std::move(zeros),
                                       national_profile().counties());
  const demand::DemandProfile single(
      {national_profile().cells()[national_profile().peak_cell().index]},
      national_profile().counties());
  for (const demand::DemandProfile* profile : {&all_zero, &single}) {
    expect_same(*profile, 10.0, 20.0);
    expect_same(*profile, 10.0, 1e4);
  }
}

// longtail_cheapest reads the curve's last point in one walk; it must be
// longtail_curve(...).back() bit for bit: the paper model at every Figure 3
// pair, every default operator at a full share, half a share and its
// proportional economic share, on two seeds, a tie-heavy profile and a
// profile where no cell needs two beams (the size_with_cap fallback).
TEST(LongTail, CheapestMatchesCurveBack) {
  const auto expect_back = [](const SizingModel& model,
                              const demand::DemandProfile& profile, double s,
                              double oversub) {
    const LongTailPoint want = longtail_curve(profile, model, s, oversub).back();
    const LongTailPoint got = longtail_cheapest(profile, model, s, oversub);
    SCOPED_TRACE(::testing::Message() << "s=" << s << " oversub=" << oversub
                                      << " inclination="
                                      << model.inclination_deg);
    EXPECT_EQ(got.locations_unserved, want.locations_unserved);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.satellites),
              std::bit_cast<std::uint64_t>(want.satellites));
    EXPECT_EQ(got.beams_on_binding, want.beams_on_binding);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.binding_lat_deg),
              std::bit_cast<std::uint64_t>(want.binding_lat_deg));
  };
  const demand::DemandProfile seed7 =
      demand::SyntheticGenerator({.seed = 7}).generate_profile();
  const TieHeavy tie = tie_heavy_profile(42);
  std::vector<demand::CellDemand> ones = national_profile().cells();
  for (demand::CellDemand& c : ones) c.underserved = std::min(c.underserved, 1U);
  const demand::DemandProfile single_beam(std::move(ones),
                                          national_profile().counties());
  const std::vector<const demand::DemandProfile*> profiles{
      &national_profile(), &seed7, &tie.profile, &single_beam};

  const SizingModel paper;
  const AnalysisConfig config;
  const std::vector<market::OperatorConfig> operators =
      market::default_market();
  const market::SpectrumSplit proportional(
      operators, {.policy = market::SplitPolicy::kProportional});
  const market::MarketConfig defaults;
  for (const demand::DemandProfile* profile : profiles) {
    for (const auto& [s, oversub] : config.fig3_curves) {
      expect_back(paper, *profile, s, oversub);
    }
    for (const auto& p : kTiePoints) expect_back(paper, *profile, p[0], p[1]);
    for (std::size_t i = 0; i < operators.size(); ++i) {
      for (const double share :
           {1.0, 0.5, proportional.economic_share(i)}) {
        expect_back(operators[i].sizing_model(share), *profile,
                    defaults.beamspread, defaults.oversub_cap);
      }
    }
  }
  // Nothing needs two beams: the one point is the single-beam fallback.
  EXPECT_EQ(longtail_curve(single_beam, paper, 10.0, 20.0).size(), 1U);
  EXPECT_THROW((void)longtail_cheapest(
                   demand::DemandProfile({}, national_profile().counties()),
                   paper, 10.0, 20.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace leodivide::core
